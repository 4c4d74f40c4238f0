//! NFA stepping A/B/C over the one entry point,
//! [`NfaRuntime::advance_block_into`]: 1-tuple batches vs one N-tuple batch
//! (both scalar, `block = None`) vs one N-tuple batch with its
//! [`ColumnBlock`] (block masks + candidate-row stepping), at
//! 1/4/16/64/256 distinct deployed gestures with the block path's
//! marginal ns per added gesture per frame, plus allocation-count
//! assertions (via a counting global allocator) proving the batched hot
//! loop performs **zero** heap allocations at steady state — when
//! nothing matches, under seed/expire churn, with the columnar
//! block build + predicate pre-pass in the loop, and with the kernel
//! stage timer sampling every batch (the telemetry overhead guard,
//! also timed as an on/off A/B leg) — and for an idle catalog: 64
//! deployed plans with no run whose seeds the lane bounds rule out,
//! stepped through `PlanInstance::push_batch_shared`, which answers them
//! without stepping (timed per plan call against the full step).
//!
//! ```sh
//! cargo bench -p gesto-bench --bench bench_nfa
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gesto_cep::{
    parse_pattern, parse_query, FunctionRegistry, MatchScratch, NfaRuntime, PlanInstance,
    QueryPlan, SingleSchema,
};
use gesto_stream::{Catalog, ColumnBlock, SchemaBuilder, SchemaRef, SharedViews, Tuple, Value};

/// Counts every heap allocation (alloc/realloc/alloc_zeroed) so the
/// bench can assert the hot loop's no-allocation contract.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SOURCE: &str = "kinect_t";

fn schema() -> SchemaRef {
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
/// window bands, consecutive steps within 1 second. Gesture `g` gets its
/// own pose centres so deployed gestures do not fire in lockstep; the
/// centres repeat every 90 gestures, so the band width grows there to
/// keep every deployed gesture distinct.
fn gesture_pattern(g: usize) -> String {
    let width = 12 + g / 90;
    let step = |k: usize| {
        format!(
            "{SOURCE}(abs(x - {}) < {width} and abs(y - {}) < {width} and abs(z - {}) < {width})",
            centre(g, k),
            centre(g, k + 1),
            centre(g, k + 2)
        )
    };
    format!(
        "{} -> {} -> {} within 1 seconds select first consume all",
        step(0),
        step(1),
        step(2)
    )
}

fn compile_gestures(n: usize) -> Vec<NfaRuntime> {
    let funcs = FunctionRegistry::with_builtins();
    let resolver = SingleSchema(schema());
    (0..n)
        .map(|i| {
            NfaRuntime::compile(
                &parse_pattern(&gesture_pattern(i)).unwrap(),
                &resolver,
                &funcs,
            )
            .unwrap()
        })
        .collect()
}

/// A pseudo-random 30 fps pose stream over the band range — seeding and
/// advancing runs constantly — with a deliberate performance of one
/// gesture (cycling through the deployed set) every 40 frames, so the
/// stream also completes matches.
fn workload(frames: usize) -> Vec<Tuple> {
    let s = schema();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 100) as f64
    };
    (0..frames)
        .map(|i| {
            let (x, y, z) = if i % 40 < 3 {
                // Pose k of a deliberate performance of gesture g.
                let (g, k) = ((i / 40) % 16, i % 40);
                (centre(g, k), centre(g, k + 1), centre(g, k + 2))
            } else {
                (next(), next(), next())
            };
            Tuple::new_unchecked(
                s.clone(),
                vec![
                    Value::Timestamp(i as i64 * 33),
                    Value::Float(x),
                    Value::Float(y),
                    Value::Float(z),
                ],
            )
        })
        .collect()
}

/// A stream that matches no step of any gesture (poses far outside every
/// band): the pure no-match steady state.
fn idle_workload(frames: usize) -> Vec<Tuple> {
    let s = schema();
    (0..frames)
        .map(|i| {
            Tuple::new_unchecked(
                s.clone(),
                vec![
                    Value::Timestamp(i as i64 * 33),
                    Value::Float(500.0),
                    Value::Float(500.0),
                    Value::Float(500.0),
                ],
            )
        })
        .collect()
}

/// `n` deployed plans of the sweep's gestures over a catalog whose
/// stream is [`SOURCE`], and the views a session steps them in.
fn idle_catalog(n: usize) -> (Vec<PlanInstance>, SharedViews) {
    let catalog = Catalog::new();
    catalog.register_stream(schema()).unwrap();
    let funcs = FunctionRegistry::with_builtins();
    let plans = (0..n).map(|g| {
        let query = parse_query(&format!("SELECT \"g{g}\" MATCHING {};", gesture_pattern(g)));
        QueryPlan::compile(query.unwrap(), &catalog, &funcs)
            .unwrap()
            .instantiate()
    });
    (plans.collect(), SharedViews::new(&catalog))
}

/// One session's batch through every plan of an idle catalog.
fn push_idle(plans: &mut [PlanInstance], views: &SharedViews, tuples: &[Tuple]) {
    let mut out = Vec::new();
    for plan in plans.iter_mut() {
        plan.push_batch_shared(SOURCE, tuples, views, &mut out)
            .unwrap();
    }
    assert!(out.is_empty(), "an idle catalog detects nothing");
}

/// Mean ns/iter of `f` over an adaptive iteration count (~0.4 s).
fn measure(mut f: impl FnMut()) -> f64 {
    // Warmup sizes the loop and warms caches/buffers.
    let warm = Instant::now();
    let mut warm_iters = 0u32;
    while warm.elapsed().as_millis() < 60 || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let per_iter = warm.elapsed().as_nanos() / u128::from(warm_iters);
    let iters = (400_000_000 / per_iter.max(1)).clamp(1, 1_000_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

struct AbResult {
    gestures: usize,
    batch1_fps: f64,
    batchn_fps: f64,
    block_fps: f64,
    /// Block path, ns per frame across all `gestures`.
    block_ns_per_frame: f64,
    speedup: f64,
    block_speedup: f64,
    matches: u64,
}

/// 1-tuple batches vs one N-tuple batch vs N-tuple batch + block, for
/// `n` gestures over the same stream.
fn ab_advance(n: usize, tuples: &[Tuple]) -> AbResult {
    let frames = tuples.len() as f64;

    // 1-tuple batches: every tuple steps every NFA, interleaved — the
    // shape of a 30 Hz sensor pushing frame by frame.
    let mut nfas = compile_gestures(n);
    let mut scratch = MatchScratch::new();
    let mut matches = 0u64;
    let batch1_ns = measure(|| {
        for t in tuples {
            for nfa in nfas.iter_mut() {
                nfa.advance_block_into(SOURCE, std::slice::from_ref(t), None, &mut scratch)
                    .unwrap();
            }
        }
        matches = scratch.len() as u64;
        scratch.clear();
        for nfa in nfas.iter_mut() {
            nfa.reset();
        }
    });

    // One N-tuple batch: every NFA steps the whole batch in one call —
    // the shape of `PlanInstance::push_batch_shared` without blocks.
    let mut nfas = compile_gestures(n);
    let mut batched_matches = 0u64;
    let batchn_ns = measure(|| {
        batched_matches = 0;
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, tuples, None, &mut scratch)
                .unwrap();
            batched_matches += scratch.len() as u64;
            scratch.clear();
            nfa.reset();
        }
    });

    // Columnar path: one block build per batch (amortised across every
    // deployed gesture) + the vectorized predicate pre-pass.
    let mut nfas = compile_gestures(n);
    let mut block = ColumnBlock::new();
    let mut block_matches = 0u64;
    let block_ns = measure(|| {
        block_matches = 0;
        block.fill_from_tuples(tuples);
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, tuples, Some(&block), &mut scratch)
                .unwrap();
            block_matches += scratch.len() as u64;
            scratch.clear();
            nfa.reset();
        }
    });

    assert_eq!(matches, batched_matches, "paths must agree on detections");
    assert_eq!(matches, block_matches, "block path must agree too");
    AbResult {
        gestures: n,
        batch1_fps: frames / (batch1_ns / 1e9),
        batchn_fps: frames / (batchn_ns / 1e9),
        block_fps: frames / (block_ns / 1e9),
        block_ns_per_frame: block_ns / frames,
        speedup: batch1_ns / batchn_ns,
        block_speedup: batch1_ns / block_ns,
        matches,
    }
}

/// Asserts the batched hot loop allocates nothing at steady state.
fn assert_zero_allocations() {
    // (a) Pure no-match: nothing ever seeds.
    let tuples = idle_workload(512);
    let mut nfas = compile_gestures(4);
    let mut scratch = MatchScratch::new();
    for nfa in nfas.iter_mut() {
        nfa.advance_block_into(SOURCE, &tuples[..], None, &mut scratch)
            .unwrap();
    }
    let before = allocations();
    for _ in 0..16 {
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, &tuples[..], None, &mut scratch)
                .unwrap();
        }
    }
    let no_match_allocs = allocations() - before;
    assert_eq!(scratch.len(), 0, "idle stream must not match");
    assert_eq!(
        no_match_allocs, 0,
        "no-match steady state must not allocate"
    );
    println!("alloc-check: no-match steady state      0 allocations ✓");

    // (b) Seed/expire/complete churn: after one warmup pass the slab,
    // arena and scratch capacities are in place — steady state stays
    // allocation-free even while runs seed, expire and complete.
    let tuples = workload(512);
    let mut nfas = compile_gestures(4);
    let mut matches = 0u64;
    for _ in 0..2 {
        matches = 0;
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, &tuples[..], None, &mut scratch)
                .unwrap();
            matches += scratch.len() as u64;
            scratch.clear();
            nfa.reset();
        }
    }
    let before = allocations();
    for _ in 0..16 {
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, &tuples[..], None, &mut scratch)
                .unwrap();
            scratch.clear();
            nfa.reset();
        }
    }
    let churn_allocs = allocations() - before;
    assert!(matches > 0, "churn workload must complete matches");
    assert_eq!(
        churn_allocs, 0,
        "seed/expire/complete steady state must not allocate"
    );
    println!("alloc-check: seed/expire/match churn    0 allocations ✓ ({matches} matches/pass)");

    // (c) Columnar path: the per-batch block build and the predicate
    // pre-pass (per-(step, tuple) bitmasks + the kernels' word buffer in
    // the MatchScratch) must also be allocation-free once warm.
    let mut nfas = compile_gestures(4);
    let mut block = ColumnBlock::new();
    let mut block_matches = 0u64;
    for _ in 0..2 {
        block_matches = 0;
        block.fill_from_tuples(&tuples);
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, &tuples[..], Some(&block), &mut scratch)
                .unwrap();
            block_matches += scratch.len() as u64;
            scratch.clear();
            nfa.reset();
        }
    }
    let before = allocations();
    for _ in 0..16 {
        block.fill_from_tuples(&tuples);
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, &tuples[..], Some(&block), &mut scratch)
                .unwrap();
            scratch.clear();
            nfa.reset();
        }
    }
    let block_allocs = allocations() - before;
    assert_eq!(block_matches, matches, "block path must agree on matches");
    assert_eq!(
        block_allocs, 0,
        "columnar pre-pass steady state must not allocate"
    );
    println!("alloc-check: block build + pre-pass     0 allocations ✓");

    // (d) The dist() kernel's six-lane read must stay allocation-free
    // too (it seeds every tuple here, shedding at the run cap).
    let mut dist_nfa = NfaRuntime::compile(
        &parse_pattern(&format!(
            "{SOURCE}(dist(x, y, z, x, y, z) < 1) -> {SOURCE}(x > 9000)"
        ))
        .unwrap(),
        &SingleSchema(schema()),
        &FunctionRegistry::with_builtins(),
    )
    .unwrap()
    .with_max_runs(64);
    // Longer warmup: this workload cycles the event arena through
    // mark-compaction (every ~2 batches), so the compaction scratch
    // only reaches its high-water capacity after a few cycles.
    for _ in 0..8 {
        block.fill_from_tuples(&tuples);
        dist_nfa
            .advance_block_into(SOURCE, &tuples[..], Some(&block), &mut scratch)
            .unwrap();
        scratch.clear();
    }
    let before = allocations();
    for _ in 0..16 {
        block.fill_from_tuples(&tuples);
        dist_nfa
            .advance_block_into(SOURCE, &tuples[..], Some(&block), &mut scratch)
            .unwrap();
        scratch.clear();
    }
    let dist_allocs = allocations() - before;
    assert!(
        dist_nfa.shed_runs() > 0,
        "dist workload must exercise the cap"
    );
    assert_eq!(
        dist_allocs, 0,
        "dist kernels must not allocate at steady state"
    );
    println!("alloc-check: dist kernel pre-pass       0 allocations ✓");

    // (e) The kernel stage timer must never be a heap path: with
    // sampling fully off and at its most aggressive (every batch),
    // steady state stays allocation-free — the timer is two clock
    // reads and a histogram bucket increment, all atomics.
    let mut nfas = compile_gestures(4);
    for every in [0u32, 1] {
        gesto_cep::metrics::KERNEL_SAMPLER.set_every(every);
        for _ in 0..2 {
            block.fill_from_tuples(&tuples);
            for nfa in nfas.iter_mut() {
                nfa.advance_block_into(SOURCE, &tuples[..], Some(&block), &mut scratch)
                    .unwrap();
                scratch.clear();
                nfa.reset();
            }
        }
        let before = allocations();
        for _ in 0..16 {
            block.fill_from_tuples(&tuples);
            for nfa in nfas.iter_mut() {
                nfa.advance_block_into(SOURCE, &tuples[..], Some(&block), &mut scratch)
                    .unwrap();
                scratch.clear();
                nfa.reset();
            }
        }
        let timer_allocs = allocations() - before;
        assert_eq!(
            timer_allocs, 0,
            "stage-timer sampling (every={every}) must not allocate"
        );
    }
    gesto_cep::metrics::KERNEL_SAMPLER.set_every(64);
    println!("alloc-check: stage timer off/every=1    0 allocations ✓");

    // (f) An idle catalog: 64 plans with no run, every seed ruled out by
    // the lane bounds, are answered without stepping — and allocate
    // nothing, block build included.
    let tuples = idle_workload(30);
    let (mut plans, mut views) = idle_catalog(64);
    for _ in 0..2 {
        views.begin_batch(SOURCE, &tuples);
        push_idle(&mut plans, &views, &tuples);
    }
    let before = allocations();
    for _ in 0..16 {
        views.begin_batch(SOURCE, &tuples);
        push_idle(&mut plans, &views, &tuples);
    }
    let idle_allocs = allocations() - before;
    assert!(plans.iter().all(|p| p.active_runs() == 0));
    assert_eq!(idle_allocs, 0, "an idle catalog must not allocate");
    println!("alloc-check: idle catalog, 64 plans     0 allocations ✓");
}

/// ns per plan call of a 64-plan idle catalog over one 30-frame batch:
/// through the plan (answered without stepping), and stepped in full.
fn idle_catalog_ns() -> (f64, f64) {
    let tuples = idle_workload(30);
    let (mut plans, mut views) = idle_catalog(64);
    views.begin_batch(SOURCE, &tuples);
    let skipped = measure(|| push_idle(&mut plans, &views, &tuples)) / 64.0;
    let block = views.base_block().expect("columnar by default");
    let mut nfas: Vec<NfaRuntime> = plans
        .iter()
        .map(|p| NfaRuntime::instantiate(p.plan().program().clone()))
        .collect();
    let mut scratch = MatchScratch::new();
    let stepped = measure(|| {
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, &tuples[..], Some(block), &mut scratch)
                .unwrap();
        }
    }) / 64.0;
    (skipped, stepped)
}

/// Times the columnar path with the kernel stage timer disabled vs
/// sampling every batch: the observability overhead guard.
fn ab_stage_timer(tuples: &[Tuple]) -> (f64, f64) {
    let frames = tuples.len() as f64;
    let mut nfas = compile_gestures(4);
    let mut scratch = MatchScratch::new();
    let mut block = ColumnBlock::new();
    let pass = |nfas: &mut Vec<NfaRuntime>, block: &mut ColumnBlock, scratch: &mut MatchScratch| {
        block.fill_from_tuples(tuples);
        for nfa in nfas.iter_mut() {
            nfa.advance_block_into(SOURCE, tuples, Some(block), scratch)
                .unwrap();
            scratch.clear();
            nfa.reset();
        }
    };
    gesto_cep::metrics::KERNEL_SAMPLER.set_every(0);
    let off_ns = measure(|| pass(&mut nfas, &mut block, &mut scratch));
    gesto_cep::metrics::KERNEL_SAMPLER.set_every(1);
    let on_ns = measure(|| pass(&mut nfas, &mut block, &mut scratch));
    gesto_cep::metrics::KERNEL_SAMPLER.set_every(64);
    (frames / (off_ns / 1e9), frames / (on_ns / 1e9))
}

fn main() {
    println!("NFA stepping — 1-tuple batches vs N-tuple batches vs block");
    println!("==========================================================\n");
    assert_zero_allocations();
    println!();

    let tuples = workload(512);
    let (mut prev_n, mut prev_ns) = (0, 0.0);
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>9} {:>9} {:>9} {:>15}",
        "gestures",
        "batch-1 f/s",
        "batch-N f/s",
        "block f/s",
        "speedup",
        "blk-spdup",
        "matches",
        "ns/gesture/frame"
    );
    for n in [1usize, 4, 16, 64, 256] {
        let r = ab_advance(n, &tuples);
        // Marginal cost of the gestures added since the previous row of
        // the sweep, block path: the curve ROADMAP item 4 wants bent.
        let marginal = (r.block_ns_per_frame - prev_ns) / (n - prev_n) as f64;
        println!(
            "{:>9} {:>14.0} {:>14.0} {:>14.0} {:>8.2}x {:>8.2}x {:>9} {:>15.1}",
            r.gestures,
            r.batch1_fps,
            r.batchn_fps,
            r.block_fps,
            r.speedup,
            r.block_speedup,
            r.matches,
            marginal
        );
        (prev_n, prev_ns) = (r.gestures, r.block_ns_per_frame);
    }

    let (skipped, stepped) = idle_catalog_ns();
    println!(
        "\nidle catalog (64 plans, no run, seeds ruled out by bounds, 30-frame batch): \
         {skipped:.1} ns/plan call, {stepped:.1} stepped in full"
    );

    let (timer_off_fps, timer_on_fps) = ab_stage_timer(&tuples);
    let timer_overhead_pct = (timer_off_fps / timer_on_fps - 1.0) * 100.0;
    println!(
        "\nstage-timer A/B (4 gestures, block path): off {timer_off_fps:.0} f/s, \
         every-batch {timer_on_fps:.0} f/s ({timer_overhead_pct:+.2}% overhead)"
    );
}
