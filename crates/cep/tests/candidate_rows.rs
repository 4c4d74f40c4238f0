//! Match cost follows activity: `gesto_nfa_rows_stepped_total` (rows the
//! stepping loop visited) against `gesto_kernel_block_rows_total` (rows
//! presented to the kernels), and a plan a batch cannot move is answered
//! without stepping at all.
//!
//! The counters are process-global, so this file's tests run one at a
//! time (`SERIAL`), nothing else stepping an NFA beside them. A counting
//! `#[global_allocator]` (as in `front_path_alloc`) tells whether a plan
//! call took its thread's match scratch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use gesto_cep::metrics::{
    KERNEL_BLOCK_EVALS_TOTAL, KERNEL_BLOCK_ROWS_TOTAL, KERNEL_BOUNDS_DECIDED_TOTAL,
    NFA_ROWS_STEPPED_TOTAL,
};
use gesto_cep::{
    parse_pattern, parse_query, FunctionRegistry, MatchScratch, NfaRuntime, PlanInstance,
    QueryPlan, SingleSchema,
};
use gesto_stream::{Catalog, ColumnBlock, SchemaBuilder, SharedViews, Tuple, Value};

/// Counts the calling thread's heap allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
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
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

const ROWS: usize = 30;

#[test]
fn rows_stepped_follow_candidate_rows_not_block_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let schema = SchemaBuilder::new("k")
        .timestamp("ts")
        .float("x")
        .build()
        .unwrap();
    // `x = 50` everywhere except the given rows: 50 hits neither step.
    let batch = |overrides: &[(usize, f64)]| -> Vec<Tuple> {
        (0..ROWS)
            .map(|row| {
                let x = overrides.iter().find(|o| o.0 == row).map_or(50.0, |o| o.1);
                let values = vec![Value::Timestamp(row as i64 * 33), Value::Float(x)];
                Tuple::new(schema.clone(), values).unwrap()
            })
            .collect()
    };
    let nfa = || {
        NfaRuntime::compile(
            &parse_pattern("k(abs(x - 10) < 5) -> k(abs(x - 80) < 5) within 10 seconds").unwrap(),
            &SingleSchema(schema.clone()),
            &FunctionRegistry::with_builtins(),
        )
        .unwrap()
    };
    // (rows stepped, rows presented to the kernels) by one batch.
    let step = |nfa: &mut NfaRuntime, tuples: &[Tuple], columnar: bool| {
        let mut block = ColumnBlock::new();
        block.fill_from_tuples(tuples);
        let mut out = MatchScratch::new();
        let before = (NFA_ROWS_STEPPED_TOTAL.get(), KERNEL_BLOCK_ROWS_TOTAL.get());
        nfa.advance_block_into("k", tuples, columnar.then_some(&block), &mut out)
            .unwrap();
        (
            NFA_ROWS_STEPPED_TOTAL.get() - before.0,
            KERNEL_BLOCK_ROWS_TOTAL.get() - before.1,
        )
    };
    let rows = ROWS as u64;

    // An idle plan — seed mask all-zero, no runs — visits no row at all;
    // its whole cost is the seed pre-pass.
    let mut idle = nfa();
    assert_eq!(step(&mut idle, &batch(&[]), true), (0, rows));
    assert_eq!(idle.active_runs(), 0);

    // k seed hits and a step-1 mask that adds nothing: exactly k rows,
    // for two pre-passes' worth of kernel rows (seed + on-demand step 1).
    let mut seeded = nfa();
    let seeds = [(4, 10.0), (9, 11.0), (17, 9.0)];
    assert_eq!(step(&mut seeded, &batch(&seeds), true), (3, 2 * rows));
    assert_eq!(seeded.active_runs(), 3);

    // The on-demand mask of step 1 adds its own rows, but only those
    // still ahead of the loop: row 2 lies behind the first seed.
    let mut advanced = nfa();
    let mixed = [(2, 80.0), (4, 10.0), (9, 11.0), (12, 80.0), (17, 9.0)];
    let (stepped, presented) = step(&mut advanced, &batch(&mixed), true);
    assert_eq!(stepped, 4, "k = 3 seeds (rows 4, 9, 17) + on-demand row 12");
    assert_eq!(presented, 2 * rows);

    // Without a block every row is a candidate and no kernel runs.
    let mut scalar = nfa();
    assert_eq!(step(&mut scalar, &batch(&seeds), false), (rows, 0));
}

/// The kernel and stepping counters, read now.
fn counts() -> [u64; 4] {
    [
        KERNEL_BLOCK_EVALS_TOTAL.get(),
        KERNEL_BLOCK_ROWS_TOTAL.get(),
        KERNEL_BOUNDS_DECIDED_TOTAL.get(),
        NFA_ROWS_STEPPED_TOTAL.get(),
    ]
}

fn since(before: [u64; 4]) -> [u64; 4] {
    let now = counts();
    std::array::from_fn(|i| now[i] - before[i])
}

#[test]
fn a_plan_the_batch_cannot_move_is_not_stepped() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let schema = SchemaBuilder::new("k")
        .timestamp("ts")
        .float("x")
        .build()
        .unwrap();
    let catalog = Catalog::new();
    catalog.register_stream(schema.clone()).unwrap();
    let funcs = FunctionRegistry::with_builtins();
    // `x` in 50..=56 on every row: the lane bounds rule out every seed
    // band below; the draining plan's seed would hit, but may not seed.
    let batches: Vec<Vec<Tuple>> = (0..3)
        .map(|b| {
            (0..ROWS)
                .map(|r| {
                    let ts = Value::Timestamp((b * ROWS + r) as i64 * 33);
                    let x = Value::Float(50.0 + (r % 7) as f64);
                    Tuple::new(schema.clone(), vec![ts, x]).unwrap()
                })
                .collect()
        })
        .collect();
    let texts = [10, 20, 30, 53].map(|c| {
        format!(
            r#"SELECT "g{c}" MATCHING k(abs(x - {c}) < 5) -> k(abs(x - 90) < 5) within 10 seconds;"#
        )
    });
    let plans: Vec<_> = texts
        .iter()
        .map(|t| QueryPlan::compile(parse_query(t).unwrap(), &catalog, &funcs).unwrap())
        .collect();

    // The full step, over the same batches and blocks.
    let mut reference: Vec<NfaRuntime> = plans
        .iter()
        .map(|p| NfaRuntime::instantiate(p.program().clone()))
        .collect();
    reference[3].set_seeding(false);
    let mut block = ColumnBlock::new();
    let before = counts();
    for batch in &batches {
        block.fill_from_tuples(batch);
        for nfa in &mut reference {
            nfa.advance_block_into("k", &batch[..], Some(&block), &mut MatchScratch::new())
                .unwrap();
        }
    }
    let full = since(before);
    let rows = ROWS as u64;
    assert_eq!(full, [9, 9 * rows, 9, 0], "three bounds decisions a batch");

    // The plans: the same counts, no run, and, on a thread whose scratch
    // slot is still empty, no allocation — a call that took the thread's
    // scratch would have had to make one.
    let mut instances: Vec<PlanInstance> = plans.iter().map(|p| p.instantiate()).collect();
    instances[3].set_draining(true);
    let mut views = SharedViews::new(&catalog);
    let mut out = Vec::new();
    let before = counts();
    views.begin_batch("k", &batches[0]);
    for inst in &mut instances {
        inst.push_batch_shared("k", &batches[0], &views, &mut out)
            .unwrap();
    }
    let allocations = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut allocations = 0;
                for batch in &batches[1..] {
                    views.begin_batch("k", batch);
                    let at = ALLOCATIONS.with(Cell::get);
                    for inst in &mut instances {
                        inst.push_batch_shared("k", batch, &views, &mut out)
                            .unwrap();
                    }
                    allocations += ALLOCATIONS.with(Cell::get) - at;
                }
                allocations
            })
            .join()
            .unwrap()
    });
    assert_eq!(since(before), full, "the counts of the full step");
    assert_eq!(allocations, 0, "an idle call takes no scratch");
    assert!(out.is_empty() && instances.iter().all(|i| i.active_runs() == 0));
}
