//! The front path's allocation contract, counted.
//!
//! One test in a process of its own (a counting `#[global_allocator]`),
//! its legs run one after the other: the shard
//! worker's per-batch sequence — lend the one set of [`BatchBuffers`],
//! begin the batch from the skeleton frames, NFA stepping, reclaim —
//! round-robin over three sessions whose traces seed no run calls the
//! allocator exactly once per tuple it adds to `gesto_tuples_built_total`
//! once the buffers are sized, and never otherwise. On a block batch
//! `kinect_t` defers its rows ([`Emit::defer`]): no view tuple is built,
//! so nothing is allocated, and a row a reader materialises is the
//! reader's allocation, counted as it is built. On a scalar batch every
//! view row is a fresh tuple. No raw-stream tuple exists until a plan
//! reads the raw stream: then the sequence also builds one fresh base
//! tuple per frame ([`KinectSlots::tuple`]) and, on a block batch, the
//! frame → base block.
//!
//! The `kept_rows` leg's traces seed and advance runs: on a block batch a
//! row a run keeps costs one allocation (its [`KeptRow`] handle) and no
//! tuple until somebody reads a detection carrying it, and then one tuple
//! however many plans' detections carry it. The `idle_catalog` leg deploys sixteen plans whose
//! seeds the lane bounds rule out on every idle batch: none is stepped,
//! and a warm batch allocates nothing.
//!
//! The last legs step [`NfaRuntime::advance_block_into`] on its own, and
//! once warm none of them allocates: a stream that matches nothing;
//! runs that seed, expire and complete; the same with the column block
//! built and its predicates pre-passed; `dist()` kernels shedding at the
//! run cap; 64 calls with the kernel stage timer inside them; and 64
//! plans of an idle catalog answered without stepping.
//!
//! [`NfaRuntime::advance_block_into`]: gesto::cep::NfaRuntime::advance_block_into
//! [`Emit::defer`]: gesto::stream::Emit::defer
//! [`KeptRow`]: gesto::stream::KeptRow

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gesto::cep::{
    parse_pattern, parse_query, sync_shared_views, Detection, Engine, FunctionRegistry,
    MatchScratch, NfaRuntime, PlanInstance, QueryPlan, SingleSchema,
};
use gesto::kinect::{kinect_schema, KinectSlots, Performer, Persona, SkeletonFrame, KINECT_STREAM};
use gesto::stream::metrics::TUPLES_BUILT_TOTAL;
use gesto::stream::{
    BatchBuffers, Catalog, ColumnBlock, RowBatch, RowSource, SchemaBuilder, SchemaRef, SharedViews,
    Tuple, Value,
};
use gesto::transform::{standard_catalog, KINECT_T};

/// Counts the calling thread's heap allocations (alloc / realloc /
/// alloc_zeroed), so whatever the test harness does on its own threads
/// stays out of the figure.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread allocating while its locals are torn down is
    // simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc` and `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What one session keeps between its batches.
struct Session {
    views: SharedViews,
    instances: Vec<PlanInstance>,
}

/// The shard worker's sessions and scratch, and its per-batch sequence
/// (`ShardWorker::process`).
struct Shard {
    schema: SchemaRef,
    slots: KinectSlots,
    sessions: Vec<Session>,
    /// Some deployed plan has a route on the raw stream
    /// (`SessionRuntime::raw_tuples`).
    raw_tuples: bool,
    /// Batches take the block path (`columnar_min_batch` ≤ 30).
    columnar: bool,
    tuples: Vec<Tuple>,
    detections: Vec<Detection>,
    bufs: BatchBuffers,
    /// Allocations made by the data path itself (not by `read`).
    allocs: u64,
}

impl Shard {
    /// One batch of session `s`; `read` sees the base tuples and the
    /// session's views while the buffers are still lent.
    fn push<R>(
        &mut self,
        s: usize,
        frames: &Vec<SkeletonFrame>,
        read: impl FnOnce(&[Tuple], &SharedViews) -> R,
    ) -> R {
        let Shard {
            schema,
            slots,
            sessions,
            raw_tuples,
            columnar,
            tuples,
            detections,
            bufs,
            allocs,
        } = self;
        let Session { views, instances } = &mut sessions[s];
        let before = allocations();
        views.lend(std::mem::take(bufs));
        tuples.clear();
        if *raw_tuples {
            tuples.extend(frames.iter().map(|f| slots.tuple(f, schema)));
            TUPLES_BUILT_TOTAL.add(frames.len() as u64);
        }
        views.set_columnar(*columnar);
        assert_eq!(views.base_wanted(), *raw_tuples && *columnar);
        if views.base_wanted() {
            views.fill_base_with(|cols, block| slots.write_block(frames, schema, cols, block));
        }
        views.begin_batch_rows(KINECT_STREAM, &RowBatch::of(frames, schema), tuples);
        for inst in instances.iter_mut() {
            inst.push_batch_shared(KINECT_STREAM, tuples, views, detections)
                .unwrap();
        }
        *allocs += allocations() - before;
        let result = read(tuples, views);
        *bufs = views.reclaim();
        assert_eq!(views.buffer_bytes(), 0, "a session retains no batch buffer");
        result
    }
}

#[test]
fn steady_state_batch_allocates_once_per_built_tuple() {
    // The four workloads' shape — every plan reads `kinect_t` — then
    // the same with a plan on the raw stream deployed; on the block
    // path, then on the scalar path.
    for columnar in [true, false] {
        steady_state(false, columnar);
        steady_state(true, columnar);
    }
    assert_eq!(
        kept_rows(true),
        kept_rows(false),
        "block and scalar detect alike"
    );
    idle_catalog();
    nfa_steady_state();
}

/// Sixteen plans in each session whose seed bands no idle row comes
/// near: the lane bounds rule every seed out, so no plan is stepped, and
/// a warm batch allocates nothing and builds no tuple.
fn idle_catalog() {
    use gesto::cep::metrics::{KERNEL_BOUNDS_DECIDED_TOTAL, NFA_ROWS_STEPPED_TOTAL};
    let catalog = standard_catalog();
    let engine = Engine::new(catalog.clone());
    let queries: Vec<String> = (0..16)
        .map(|i| {
            let c = 5000 + 100 * i;
            format!(
                "SELECT \"g{i}\" MATCHING kinect_t(abs(rHand_y - {c}) < 50 and abs(rHand_x - {c}) < 50) \
                 -> kinect_t(abs(rHand_y + {c}) < 50) within 1 seconds select first consume all;"
            )
        })
        .collect();
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
    let mut shard = new_shard(&catalog, &compile(&engine, &queries), false, true);
    let batches = idle_batches(4);
    let mut before = (0, 0, 0, 0);
    for round in 0..4 {
        if round == 2 {
            before = (
                shard.allocs,
                TUPLES_BUILT_TOTAL.get(),
                KERNEL_BOUNDS_DECIDED_TOTAL.get(),
                NFA_ROWS_STEPPED_TOTAL.get(),
            );
        }
        for (s, trace) in batches.iter().enumerate() {
            shard.push(s, &trace[round], |_, _| ());
        }
    }
    let calls = 2 * SESSIONS as u64 * 16;
    assert_eq!(
        (
            shard.allocs - before.0,
            TUPLES_BUILT_TOTAL.get() - before.1,
            KERNEL_BOUNDS_DECIDED_TOTAL.get() - before.2,
            NFA_ROWS_STEPPED_TOTAL.get() - before.3,
        ),
        (0, 0, calls, 0),
        "allocations, tuples, seeds ruled out, rows stepped"
    );
    assert!(shard.detections.is_empty());
}

/// A shard over `catalog` running `plans` in each of three sessions.
fn new_shard(catalog: &Catalog, plans: &[Arc<QueryPlan>], raw: bool, columnar: bool) -> Shard {
    let schema = kinect_schema();
    Shard {
        slots: KinectSlots::resolve(&schema, ""),
        sessions: (0..SESSIONS)
            .map(|_| {
                let mut views = SharedViews::new(catalog);
                sync_shared_views(&mut views, plans);
                let none = Vec::<SkeletonFrame>::new();
                assert!(!views.tuples_wanted(KINECT_STREAM, &RowBatch::of(&none, &schema)));
                Session {
                    views,
                    instances: plans.iter().map(|p| p.instantiate()).collect(),
                }
            })
            .collect(),
        schema,
        raw_tuples: raw,
        columnar,
        tuples: Vec::new(),
        detections: Vec::new(),
        bufs: BatchBuffers::default(),
        allocs: 0,
    }
}

const SESSIONS: usize = 3;

/// Three users' idle traces, `rounds` 30-frame batches each (the batches
/// are the producer's allocations, not the data path's).
fn idle_batches(rounds: usize) -> Vec<Vec<Vec<SkeletonFrame>>> {
    [
        Persona::reference(),
        Persona::reference().with_height(1200.0).at(700.0, 2800.0),
        Persona::reference().rotated(0.8),
    ]
    .into_iter()
    .map(|p| {
        let trace = Performer::new(p, 0).render_idle((rounds as i64 + 1) * 30 * 33);
        trace.chunks_exact(30).map(<[_]>::to_vec).collect()
    })
    .collect()
}

fn compile(engine: &Engine, queries: &[&str]) -> Vec<Arc<QueryPlan>> {
    queries
        .iter()
        .map(|q| engine.compile(gesto::cep::parse_query(q).unwrap()).unwrap())
        .collect()
}

/// Runs whose every idle row is kept: first a plan that seeds on each row
/// and never completes, then two plans that complete on every second
/// row. Returns the second part's detections (gesture, timestamps and
/// event values).
fn kept_rows(columnar: bool) -> Vec<(String, i64, i64, Vec<Vec<Value>>)> {
    let catalog = standard_catalog();
    let engine = Engine::new(catalog.clone());
    // Every idle row satisfies `ANY` and none `NONE`; the block kernels
    // decide both, so no row is built to evaluate them.
    let (any, none) = ("kinect_t(rHand_y > -100000)", "kinect_t(rHand_y > 100000)");
    let built = || TUPLES_BUILT_TOTAL.get();
    let batches = idle_batches(42);

    // Each row seeds a run that waits a second for `NONE`: a block
    // batch keeps its 30 rows, one allocation and no tuple each, once
    // the arena has grown to its compaction point (≈ 9 batches); a
    // scalar batch builds each row at emission, and keeps it by a clone.
    let q = format!("SELECT \"kept\" MATCHING {any} -> {none} within 1 seconds select first;");
    let mut shard = new_shard(&catalog, &compile(&engine, &[&q]), false, columnar);
    for round in 0..40 {
        for (s, trace) in batches.iter().enumerate() {
            shard.push(s, &trace[round], |_, _| ());
        }
    }
    let (before, built_before) = (shard.allocs, built());
    for round in 40..42 {
        for (s, trace) in batches.iter().enumerate() {
            shard.push(s, &trace[round], |_, _| ());
        }
    }
    let rows = 2 * SESSIONS as u64 * 30;
    let tuples = if columnar { 0 } else { rows };
    assert_eq!(built() - built_before, tuples, "a kept row is no tuple");
    assert_eq!(shard.allocs - before, rows, "one allocation per kept row");
    assert!(shard.detections.is_empty());

    // Two plans alike complete on rows (2k, 2k + 1) of every batch: each
    // keeps the batch's 30 rows, its detections carry all of them, and
    // each carried row is built once for both — on a block batch when
    // the detections are read, and counted then.
    let pair = |name| {
        format!(
            "SELECT \"{name}\" MATCHING {any} -> {any} within 1 seconds select first consume all;"
        )
    };
    let mut shard = new_shard(
        &catalog,
        &compile(&engine, &[&pair("a"), &pair("b")]),
        false,
        columnar,
    );
    let mut detected = Vec::new();
    for round in 0..4 {
        for (s, trace) in batches.iter().enumerate() {
            let (allocs, built_before) = (shard.allocs, built());
            shard.push(s, &trace[round], |_, _| ());
            // A detection nobody reads builds no tuple: on a block batch
            // nothing is built until the reads below; on a scalar batch
            // the view built each row at emission.
            let emitted = if columnar { 0 } else { 30 };
            assert_eq!(built() - built_before, emitted, "unread detections");
            let ds = &shard.detections;
            assert_eq!(ds.len(), 30, "15 detections per plan");
            let (a, b) = ds.split_at(15);
            for (a, b) in a.iter().zip(b) {
                assert_eq!((&a.gesture[..], &b.gesture[..]), ("a", "b"));
                for (ta, tb) in a.events.iter().zip(b.events.iter()) {
                    assert!(
                        std::ptr::eq(ta.values(), tb.values()),
                        "built once for both"
                    );
                }
            }
            let carried = a.iter().map(|d| d.events.len() as u64).sum::<u64>();
            assert_eq!((carried, built() - built_before), (30, 30));
            if round >= 2 {
                // Per row a kept row's handle (block) or the tuple built
                // at emission (scalar), and a detection's name and event
                // slice; a carried row's tuple is the reader's.
                assert_eq!(shard.allocs - allocs, 30 + 2 * 30);
            }
            detected.extend(ds.iter().map(|d| {
                let events = d.events.iter().map(|t| t.values().to_vec()).collect();
                (d.gesture.clone(), d.ts, d.started_at, events)
            }));
            shard.detections.clear();
        }
    }
    detected
}

fn steady_state(raw: bool, columnar: bool) {
    // One query over `kinect_t` and, with `raw`, one over the raw
    // stream (so base tuples and the base block are built); an idle
    // skeleton satisfies neither first step, so no run is ever seeded.
    let catalog = standard_catalog();
    let engine = Engine::new(catalog.clone());
    let plans: Vec<Arc<QueryPlan>> = [
        r#"SELECT "view" MATCHING kinect_t(rHand_y > 5000) -> kinect_t(rHand_y < -5000)
           within 1 seconds select first consume all;"#,
        r#"SELECT "raw" MATCHING kinect(rHand_x - torso_x > 5000) -> kinect(rHand_x - torso_x < -5000)
           within 1 seconds select first consume all;"#,
    ][..1 + usize::from(raw)]
        .iter()
        .map(|q| engine.compile(gesto::cep::parse_query(q).unwrap()).unwrap())
        .collect();

    let mut shard = new_shard(&catalog, &plans, raw, columnar);
    let view_slot = shard.sessions[0].views.slot_of(KINECT_T).unwrap();

    // Three users, one idle trace each, consumed a batch per turn.
    let batches = idle_batches(8);
    let mut turn = 0;
    let mut next = || {
        let (s, round) = (turn % SESSIONS, turn / SESSIONS);
        turn += 1;
        (s, &batches[s][round])
    };
    let built = || TUPLES_BUILT_TOTAL.get();

    // Two rounds size everything: the first grows the shared vectors and
    // blocks, the second each session's own NFA scratch and slot tables.
    for _ in 0..2 * SESSIONS {
        let (s, frames) = next();
        shard.push(s, frames, |_, _| ());
    }

    // Steady state, two rounds: per frame one raw tuple (with `raw`)
    // plus, on the scalar path, one view tuple is built, each one
    // allocation, and nothing else allocates.
    let per_frame = u64::from(raw) + u64::from(!columnar);
    let (before, built_before) = (shard.allocs, built());
    for _ in 0..2 * SESSIONS {
        let (s, frames) = next();
        let rows = shard.push(s, frames, |tuples, views| {
            (tuples.len(), views.rows(view_slot).len())
        });
        assert_eq!(
            rows,
            (if raw { 30 } else { 0 }, 30),
            "raw tuples, view rows"
        );
    }
    let tuples = built() - built_before;
    assert_eq!(tuples, 2 * SESSIONS as u64 * 30 * per_frame);
    assert_eq!(
        shard.allocs - before,
        tuples,
        "one allocation per tuple built"
    );
    assert!(shard.detections.is_empty(), "the traces seed nothing");

    // Somebody keeps 5 view rows (and, with `raw`, 3 base tuples) of
    // one session's batch (a retained detection). On the block path the
    // reader builds those 5 — its own allocations — and they are
    // counted as they are built; the next batches allocate nothing for
    // them. What a reader kept keeps its values while the other
    // sessions' batches run in the same buffers.
    let (before, built_before) = (shard.allocs, built());
    let (s, frames) = next();
    let held: Vec<Tuple> = shard.push(s, frames, |tuples, views| {
        let rows = views.rows(view_slot);
        let mut held: Vec<Tuple> = (10..15).map(|r| rows.get(r).clone()).collect();
        held.extend(tuples.iter().skip(4).take(3).cloned());
        held
    });
    assert_eq!(held.len(), if raw { 8 } else { 5 });
    let materialised = if columnar { 5 } else { 0 };
    assert_eq!(built() - built_before, 30 * per_frame + materialised);
    assert_eq!(shard.allocs - before, 30 * per_frame);
    let snapshot: Vec<Vec<Value>> = held.iter().map(|t| t.values().to_vec()).collect();
    let (before, built_before) = (shard.allocs, built());
    for _ in 0..SESSIONS {
        let (s, frames) = next();
        shard.push(s, frames, |_, _| ());
    }
    let tuples = built() - built_before;
    assert_eq!(tuples, SESSIONS as u64 * 30 * per_frame);
    assert_eq!(shard.allocs - before, tuples);
    for (kept, expect) in held.iter().zip(&snapshot) {
        assert_eq!(kept.values(), &expect[..], "a kept tuple keeps its values");
    }
}

/// The stream the NFA legs step: a timestamp and one 3-D point.
const SOURCE: &str = "pose";

fn pose_schema() -> SchemaRef {
    SchemaBuilder::new(SOURCE)
        .timestamp("ts")
        .float("x")
        .float("y")
        .float("z")
        .build()
        .unwrap()
}

/// Pose centre of gesture `g`, step `k`, coordinate offset `k + axis`.
fn centre(g: usize, k: usize) -> f64 {
    ((11 + g * 13 + k * 29) % 90) as f64
}

/// A learned-shape 3-step gesture: each step a conjunction of three
/// window bands round gesture `g`'s own pose centres, consecutive steps
/// within 1 second.
fn gesture_pattern(g: usize) -> String {
    let step = |k: usize| {
        let [x, y, z] = [centre(g, k), centre(g, k + 1), centre(g, k + 2)];
        format!("{SOURCE}(abs(x - {x}) < 12 and abs(y - {y}) < 12 and abs(z - {z}) < 12)")
    };
    format!(
        "{} -> {} -> {} within 1 seconds select first consume all",
        step(0),
        step(1),
        step(2)
    )
}

fn compile_nfa(pattern: &str) -> NfaRuntime {
    let pattern = parse_pattern(pattern).unwrap();
    let funcs = FunctionRegistry::with_builtins();
    NfaRuntime::compile(&pattern, &SingleSchema(pose_schema()), &funcs).unwrap()
}

/// A 30 fps stream of `frames` rows, row `i` at `pose(i)`.
fn pose_stream(frames: usize, mut pose: impl FnMut(usize) -> [f64; 3]) -> Vec<Tuple> {
    let schema = pose_schema();
    (0..frames)
        .map(|i| {
            let mut values = vec![Value::Timestamp(i as i64 * 33)];
            values.extend(pose(i).map(Value::Float));
            Tuple::new_unchecked(schema.clone(), values)
        })
        .collect()
}

/// Pseudo-random poses over the band range, seeding and advancing runs
/// all the time, and every 40 frames a deliberate performance of one of
/// the first 16 gestures, so runs also complete.
fn churn_stream(frames: usize) -> Vec<Tuple> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 100) as f64
    };
    pose_stream(frames, |i| match i % 40 {
        k @ 0..3 => {
            let g = (i / 40) % 16;
            [centre(g, k), centre(g, k + 1), centre(g, k + 2)]
        }
        _ => [next(), next(), next()],
    })
}

/// Allocations made by 16 calls of `pass` after `warm` calls have sized
/// every buffer it touches.
fn allocs_when_warm(warm: usize, mut pass: impl FnMut()) -> u64 {
    (0..warm).for_each(|_| pass());
    let before = allocations();
    (0..16).for_each(|_| pass());
    allocations() - before
}

/// Steps every runtime over `tuples` — with their column block, built
/// here, if one is given — and then drops its runs; returns the matches.
fn step_all(
    nfas: &mut [NfaRuntime],
    tuples: &[Tuple],
    mut block: Option<&mut ColumnBlock>,
    scratch: &mut MatchScratch,
) -> usize {
    if let Some(block) = block.as_deref_mut() {
        block.fill_from_tuples(tuples);
    }
    let mut matches = 0;
    for nfa in nfas {
        nfa.advance_block_into(SOURCE, tuples, block.as_deref(), scratch)
            .unwrap();
        matches += scratch.len();
        scratch.clear();
        nfa.reset();
    }
    matches
}

/// The NFA stepping loop at steady state (module docs, last legs).
fn nfa_steady_state() {
    let gestures = || {
        (0..4)
            .map(|g| compile_nfa(&gesture_pattern(g)))
            .collect::<Vec<_>>()
    };
    let mut scratch = MatchScratch::new();
    let mut block = ColumnBlock::new();

    // (a) A stream no step matches: nothing ever seeds.
    let idle = pose_stream(512, |_| [500.0; 3]);
    let mut nfas = gestures();
    let mut matches = 0;
    let allocs = allocs_when_warm(1, || {
        matches += step_all(&mut nfas, &idle, None, &mut scratch)
    });
    assert_eq!((matches, allocs), (0, 0), "no-match: matches, allocations");

    // (b) Seed / expire / complete churn: once the run slab, the event
    // arena and the scratch have grown, runs come and go in place.
    let churn = churn_stream(512);
    let mut nfas = gestures();
    let mut matches = 0;
    let allocs = allocs_when_warm(2, || {
        matches += step_all(&mut nfas, &churn, None, &mut scratch)
    });
    assert!(matches > 0, "the churn stream completes matches");
    assert_eq!(allocs, 0, "seed/expire/match churn allocates nothing");

    // (c) The same with the column block built per batch and the
    // predicates pre-passed over it (step masks, the kernels' word
    // buffer): the same matches, and no allocation.
    let mut nfas = gestures();
    let mut block_matches = 0;
    let allocs = allocs_when_warm(2, || {
        block_matches += step_all(&mut nfas, &churn, Some(&mut block), &mut scratch);
    });
    assert_eq!(block_matches, matches, "the block path matches alike");
    assert_eq!(allocs, 0, "block build and pre-pass allocate nothing");

    // (d) `dist()` kernels read six lanes; every row seeds, so the run
    // cap sheds. The event arena mark-compacts every ~2 batches, so the
    // compaction scratch needs a few cycles to reach its high water.
    let mut dist = compile_nfa(&format!(
        "{SOURCE}(dist(x, y, z, x, y, z) < 1) -> {SOURCE}(x > 9000)"
    ))
    .with_max_runs(64);
    let allocs = allocs_when_warm(8, || {
        block.fill_from_tuples(&churn);
        dist.advance_block_into(SOURCE, &churn[..], Some(&block), &mut scratch)
            .unwrap();
        scratch.clear();
    });
    assert!(dist.shed_runs() > 0, "the dist leg runs at the cap");
    assert_eq!(allocs, 0, "dist kernels allocate nothing");

    // (e) The kernel stage timer: 16 passes of 4 block calls span a
    // whole sampling period, so some call in the window is timed — two
    // clock reads and a histogram bucket, no allocation.
    use gesto::cep::metrics::KERNEL_STAGE_NS;
    let mut nfas = gestures();
    (0..2).for_each(|_| _ = step_all(&mut nfas, &churn, Some(&mut block), &mut scratch));
    let timed = KERNEL_STAGE_NS.count();
    let allocs = allocs_when_warm(0, || {
        step_all(&mut nfas, &churn, Some(&mut block), &mut scratch);
    });
    assert!(
        KERNEL_STAGE_NS.count() > timed,
        "a timed call in the window"
    );
    assert_eq!(allocs, 0, "the sampled stage timer allocates nothing");

    // (f) An idle catalog: 64 plans without a run whose seeds the lane
    // bounds rule out are answered without stepping, block build
    // included, and allocate nothing.
    let mut catalog = Catalog::new();
    catalog.register_stream(pose_schema()).unwrap();
    let funcs = FunctionRegistry::with_builtins();
    let mut plans: Vec<PlanInstance> = (0..64)
        .map(|g| {
            let query = parse_query(&format!("SELECT \"g{g}\" MATCHING {};", gesture_pattern(g)));
            let plan = QueryPlan::compile(query.unwrap(), &catalog, &funcs).unwrap();
            plan.instantiate()
        })
        .collect();
    let mut views = SharedViews::new(&catalog);
    let idle = &idle[..30];
    let mut detections = Vec::new();
    let allocs = allocs_when_warm(2, || {
        views.begin_batch(SOURCE, idle);
        for plan in &mut plans {
            plan.push_batch_shared(SOURCE, idle, &views, &mut detections)
                .unwrap();
        }
    });
    assert!(detections.is_empty() && plans.iter().all(|p| p.active_runs() == 0));
    assert_eq!(allocs, 0, "an idle catalog allocates nothing");
}
