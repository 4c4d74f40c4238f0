//! The front path's no-allocation contract, counted.
//!
//! One test in a process of its own (a counting `#[global_allocator]`,
//! as in `bench_nfa`): the shard worker's per-batch sequence — frame →
//! base tuple ([`KinectSlots::tuple_into`]), frame → base block, shared
//! views (`kinect_t` through [`Operator::recycle`]), NFA stepping — over
//! a trace that seeds no run calls the allocator **zero** times once the
//! buffers are sized, and exactly once per tuple somebody still holds a
//! clone of.
//!
//! [`Operator::recycle`]: gesto::stream::Operator::recycle

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gesto::cep::{sync_shared_views, Detection, Engine, PlanInstance, QueryPlan};
use gesto::kinect::{kinect_schema, KinectSlots, Performer, Persona, SkeletonFrame, KINECT_STREAM};
use gesto::stream::{SchemaRef, SharedViews, Tuple};
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

/// The shard worker's session state and scratch, and its per-batch
/// sequence (`ShardWorker::process`, columnar branch).
struct Shard {
    schema: SchemaRef,
    slots: KinectSlots,
    views: SharedViews,
    instances: Vec<PlanInstance>,
    tuples: Vec<Tuple>,
    detections: Vec<Detection>,
}

impl Shard {
    fn push(&mut self, frames: &[SkeletonFrame]) {
        let Shard {
            schema,
            slots,
            views,
            instances,
            tuples,
            detections,
        } = self;
        tuples.truncate(frames.len());
        let (kept, new) = frames.split_at(tuples.len());
        for (slot, frame) in tuples.iter_mut().zip(kept) {
            slots.tuple_into(frame, schema, slot);
        }
        tuples.extend(new.iter().map(|f| slots.tuple(f, schema)));
        views.set_columnar(true);
        assert!(views.base_wanted(), "a deployed query reads the raw stream");
        views.fill_base_with(|cols, block| slots.write_block(frames, schema, cols, block));
        views.begin_batch_prefilled(KINECT_STREAM, tuples);
        for inst in instances.iter_mut() {
            inst.push_batch_shared(KINECT_STREAM, tuples, views, detections)
                .unwrap();
        }
    }
}

#[test]
fn steady_state_batch_allocates_nothing() {
    // One query over the raw stream (so the base block is built) and
    // one over `kinect_t`; an idle skeleton satisfies neither first
    // step, so no run is ever seeded.
    let catalog = standard_catalog();
    let engine = Engine::new(catalog.clone());
    let plans: Vec<Arc<QueryPlan>> = [
        r#"SELECT "raw" MATCHING kinect(rHand_x - torso_x > 5000) -> kinect(rHand_x - torso_x < -5000)
           within 1 seconds select first consume all;"#,
        r#"SELECT "view" MATCHING kinect_t(rHand_y > 5000) -> kinect_t(rHand_y < -5000)
           within 1 seconds select first consume all;"#,
    ]
    .iter()
    .map(|q| engine.compile(gesto::cep::parse_query(q).unwrap()).unwrap())
    .collect();

    let mut views = SharedViews::new(&catalog);
    sync_shared_views(&mut views, &plans);
    let view_slot = views.slot_of(KINECT_T).unwrap();
    let schema = kinect_schema();
    let mut shard = Shard {
        slots: KinectSlots::resolve(&schema, ""),
        schema,
        views,
        instances: plans.iter().map(|p| p.instantiate()).collect(),
        tuples: Vec::new(),
        detections: Vec::new(),
    };

    let trace = Performer::new(Persona::reference(), 0).render_idle(8 * 30 * 33 + 33);
    let mut batches = trace.chunks_exact(30);
    let mut next = || batches.next().expect("trace long enough");

    // Two batches size every buffer: the first grows the tuple vectors
    // and the blocks, the second is the first to hand the view operator
    // spent tuples, whose vector it then keeps.
    shard.push(next());
    shard.push(next());

    let before = allocations();
    shard.push(next());
    shard.push(next());
    assert_eq!(allocations() - before, 0, "steady state: no allocation");
    assert!(shard.detections.is_empty(), "the trace seeds nothing");
    assert_eq!(shard.views.outputs(view_slot).len(), 30);

    // Somebody keeps 3 base tuples and 5 view outputs (a partial match,
    // a retained detection): exactly those are built anew — one
    // allocation each — and the kept ones stay as they were.
    let mut held: Vec<Tuple> = shard.tuples[4..7].to_vec();
    held.extend_from_slice(&shard.views.outputs(view_slot)[10..15]);
    let snapshot: Vec<Vec<gesto::stream::Value>> =
        held.iter().map(|t| t.values().to_vec()).collect();
    let before = allocations();
    shard.push(next());
    assert_eq!(allocations() - before, held.len() as u64);
    for (kept, expect) in held.iter().zip(&snapshot) {
        assert_eq!(
            kept.values(),
            &expect[..],
            "a shared tuple is never overwritten"
        );
    }

    // The replacements are uniquely owned again: back to zero, clones
    // still held.
    let before = allocations();
    shard.push(next());
    assert_eq!(allocations() - before, 0);
    drop(held);
}
