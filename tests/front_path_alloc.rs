//! The front path's no-allocation contract, counted.
//!
//! One test in a process of its own (a counting `#[global_allocator]`,
//! as in `bench_nfa`): the shard worker's per-batch sequence — lend the
//! one set of [`BatchBuffers`], begin the batch from the skeleton
//! frames, NFA stepping, reclaim — round-robin over three sessions whose
//! traces seed no run calls the allocator **zero** times once the
//! buffers are sized. On a block batch `kinect_t` defers its rows
//! ([`Emit::defer`]): no view tuple is built or counted, and a row a
//! reader materialises is the reader's allocation, never the next
//! batch's. On a scalar batch it overwrites the spent tuples
//! ([`Emit::overwrite`]): one tuple per frame is counted, each lands in
//! the very buffer the previous session's had, and the next batch
//! allocates exactly once per tuple somebody still holds a clone of. No
//! raw-stream tuple exists until a plan reads the raw stream: then the
//! sequence also builds the frame → base tuple
//! ([`KinectSlots::tuple_into`]) and the frame → base block, under the
//! scalar contract.
//!
//! [`Emit::defer`]: gesto::stream::Emit::defer
//! [`Emit::overwrite`]: gesto::stream::Emit::overwrite

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gesto::cep::{sync_shared_views, Detection, Engine, PlanInstance, QueryPlan};
use gesto::kinect::{kinect_schema, KinectSlots, Performer, Persona, SkeletonFrame, KINECT_STREAM};
use gesto::stream::metrics::{TUPLES_BUILT_TOTAL, TUPLES_RECYCLED_TOTAL};
use gesto::stream::{BatchBuffers, RowBatch, RowSource, SchemaRef, SharedViews, Tuple, Value};
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
        let raw = if *raw_tuples { frames.len() } else { 0 };
        tuples.truncate(raw);
        let (kept, new) = frames[..raw].split_at(tuples.len());
        let mut recycled = 0;
        for (slot, frame) in tuples.iter_mut().zip(kept) {
            recycled += u64::from(slots.tuple_into(frame, schema, slot));
        }
        tuples.extend(new.iter().map(|f| slots.tuple(f, schema)));
        TUPLES_RECYCLED_TOTAL.add(recycled);
        TUPLES_BUILT_TOTAL.add(raw as u64 - recycled);
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

/// Where each tuple's value buffer lives.
fn buffers<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<*const Value> {
    tuples.into_iter().map(|t| t.values().as_ptr()).collect()
}

#[test]
fn steady_state_batch_allocates_nothing() {
    // The four workloads' shape — every plan reads `kinect_t` — then
    // the same with a plan on the raw stream deployed; on the block
    // path, then on the scalar path.
    for columnar in [true, false] {
        steady_state(false, columnar);
        steady_state(true, columnar);
    }
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

    const SESSIONS: usize = 3;
    let schema = kinect_schema();
    let mut shard = Shard {
        slots: KinectSlots::resolve(&schema, ""),
        sessions: (0..SESSIONS)
            .map(|_| {
                let mut views = SharedViews::new(&catalog);
                sync_shared_views(&mut views, &plans);
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
    };
    let view_slot = shard.sessions[0].views.slot_of(KINECT_T).unwrap();

    // Three users, one idle trace each, consumed a batch per turn (the
    // batches are the producer's allocations, not the data path's).
    let batches: Vec<Vec<Vec<SkeletonFrame>>> = [
        Persona::reference(),
        Persona::reference().with_height(1200.0).at(700.0, 2800.0),
        Persona::reference().rotated(0.8),
    ]
    .into_iter()
    .map(|p| {
        let trace = Performer::new(p, 0).render_idle(8 * 30 * 33 + 33);
        trace.chunks_exact(30).map(<[_]>::to_vec).collect()
    })
    .collect();
    let mut turn = 0;
    let mut next = || {
        let (s, round) = (turn % SESSIONS, turn / SESSIONS);
        turn += 1;
        (s, &batches[s][round])
    };
    // Raw tuples' and (scalar path only: block batches build none) view
    // tuples' value buffers, and the view's row count.
    let where_the_values_live = |tuples: &[Tuple], views: &SharedViews| {
        let rows = views.rows(view_slot);
        let view = if columnar {
            Vec::new()
        } else {
            buffers(rows.iter())
        };
        (buffers(tuples), view, rows.len())
    };
    let counted = || TUPLES_RECYCLED_TOTAL.get() + TUPLES_BUILT_TOTAL.get();

    // Two rounds size everything: the first grows the shared tuple
    // vectors and blocks and each session's own NFA scratch and slot
    // tables, the second is the first to overwrite instead of build.
    for _ in 0..2 * SESSIONS {
        let (s, frames) = next();
        shard.push(s, frames, |_, _| ());
    }

    // Steady state, two rounds: no allocation, every batch's tuples sit
    // in the buffers the previous batch — another session's — had, and
    // per frame one raw tuple (with `raw`) plus, on the scalar path, one
    // view tuple is written.
    let (s, frames) = next();
    let mut last = shard.push(s, frames, where_the_values_live);
    let (before, counted_before) = (shard.allocs, counted());
    for _ in 0..2 * SESSIONS {
        let (s, frames) = next();
        let now = shard.push(s, frames, where_the_values_live);
        assert_eq!(now, last, "session {s} reuses its predecessor's buffers");
        last = now;
    }
    assert_eq!(last.0.len(), if raw { 30 } else { 0 }, "raw tuples");
    assert_eq!(last.1.len(), if columnar { 0 } else { 30 }, "view tuples");
    assert_eq!(last.2, 30, "view rows");
    assert_eq!(shard.allocs - before, 0, "steady state: no allocation");
    let per_frame = u64::from(raw) + u64::from(!columnar);
    assert_eq!(
        counted() - counted_before,
        2 * SESSIONS as u64 * 30 * per_frame
    );
    assert!(shard.detections.is_empty(), "the traces seed nothing");

    // Somebody keeps 5 view rows (and, with `raw`, 3 base tuples) of
    // one session's batch (a partial match, a retained detection). On
    // the block path the reader builds those 5 — its own allocations —
    // and they are counted when the batch is spent; the next batch
    // allocates nothing for them. On the scalar path (and for raw
    // tuples) the next batch — another session's — builds exactly the
    // kept ones anew, one allocation each. Kept ones stay as they were.
    let (s, frames) = next();
    let held: Vec<Tuple> = shard.push(s, frames, |tuples, views| {
        let rows = views.rows(view_slot);
        let mut held: Vec<Tuple> = (10..15).map(|r| rows.get(r).clone()).collect();
        held.extend(tuples.iter().skip(4).take(3).cloned());
        held
    });
    assert_eq!(held.len(), if raw { 8 } else { 5 });
    let snapshot: Vec<Vec<Value>> = held.iter().map(|t| t.values().to_vec()).collect();
    let (s, frames) = next();
    let (before, counted_before) = (shard.allocs, counted());
    shard.push(s, frames, |_, _| ());
    let rebuilt = if columnar { 0 } else { 5 } + if raw { 3 } else { 0 };
    assert_eq!(shard.allocs - before, rebuilt);
    let materialised = if columnar { 5 } else { 0 };
    assert_eq!(counted() - counted_before, 30 * per_frame + materialised);
    for (kept, expect) in held.iter().zip(&snapshot) {
        assert_eq!(
            kept.values(),
            &expect[..],
            "a shared tuple is never overwritten"
        );
    }

    // The replacements are uniquely owned again: back to zero, clones
    // still held.
    let (s, frames) = next();
    let before = shard.allocs;
    shard.push(s, frames, |_, _| ());
    assert_eq!(shard.allocs - before, 0);
    drop(held);
}
