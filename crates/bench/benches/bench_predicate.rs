//! Predicate kernel A/B: scalar `CompiledExpr::eval_bool` (tuple at a
//! time, enum-tagged `Value` reads) vs the columnar block kernels
//! (`CompiledExpr::eval_block` over contiguous `f64` lanes) across the
//! fused shapes of learned gesture queries — `Band`, `Cmp`, `Dist`, the
//! `AndAll` pose conjunction and an `OrAll` — at batch sizes 1/16/30/256
//! (30 is the serving batch of the benchmark's in-process workloads),
//! and prints what the 3-term pose costs per row against one band at
//! each size.
//!
//! Also reports the cost of building this bench's block from tuples
//! (`ColumnBlock::fill_from_tuples`). The data path does not take that
//! route for `kinect_t`: its lanes are written straight from the rows
//! (`RowPayload::write_lanes`), once per batch for every deployed
//! gesture and pattern step reading it.
//!
//! Every measurement is cross-checked: the kernels must decide all rows
//! of this all-float workload and agree with the scalar oracle exactly.
//!
//! ```sh
//! cargo bench -p gesto-bench --bench bench_predicate
//! ```

use std::time::Instant;

use gesto_cep::expr::{compile, BlockMasks, CompiledExpr, EvalScratch};
use gesto_cep::{parse_expr, FunctionRegistry};
use gesto_stream::{ColumnBlock, SchemaBuilder, SchemaRef, Tuple, Value};

fn schema() -> SchemaRef {
    SchemaBuilder::new("kinect_t")
        .timestamp("ts")
        .float("x")
        .float("y")
        .float("z")
        .float("ax")
        .float("ay")
        .float("az")
        .float("bx")
        .float("by")
        .float("bz")
        .build()
        .unwrap()
}

/// Pseudo-random all-float tuples over the band range (one shared
/// schema `Arc`, like every real producer).
fn workload(rows: usize) -> Vec<Tuple> {
    let s = schema();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 10.0
    };
    (0..rows)
        .map(|i| {
            let mut vals = vec![Value::Timestamp(i as i64 * 33)];
            vals.extend((0..s.len() - 1).map(|_| Value::Float(next())));
            Tuple::new_unchecked(s.clone(), vals)
        })
        .collect()
}

/// Mean ns/iter of `f` over an adaptive iteration count (~0.2 s).
fn measure(mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    let mut warm_iters = 0u32;
    while warm.elapsed().as_millis() < 40 || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let per_iter = warm.elapsed().as_nanos() / u128::from(warm_iters);
    let iters = (200_000_000 / per_iter.max(1)).clamp(1, 4_000_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// The fused predicate shapes under test (all parse to fused variants —
/// asserted below).
fn shapes() -> Vec<(&'static str, &'static str)> {
    vec![
        ("band", "abs(x - 50) < 12"),
        ("cmp", "x > 50"),
        // Two-lane difference shapes: `x - y` is computed one 64-row
        // word at a time into the scratch buffer, then compared.
        ("diff", "x - y > 20"),
        ("diff_band", "abs(x - y - 10) < 12"),
        ("dist", "dist(ax, ay, az, bx, by, bz) < 40"),
        (
            "and_all",
            "abs(x - 50) < 12 and abs(y - 50) < 12 and abs(z - 50) < 12",
        ),
        ("or_all", "x < 10 or abs(y - 50) < 5"),
    ]
}

const BATCHES: [usize; 4] = [1, 16, 30, 256];

struct Row {
    shape: &'static str,
    batch: usize,
    scalar_ns_per_row: f64,
    block_ns_per_row: f64,
    build_ns_per_row: f64,
    speedup: f64,
}

fn ab_shape(name: &'static str, expr: &CompiledExpr, tuples: &[Tuple]) -> Row {
    let rows = tuples.len() as f64;

    // Scalar: one eval per tuple (black-box the result via a counter).
    let mut hits = 0usize;
    let scalar_ns = measure(|| {
        hits = 0;
        for t in tuples {
            hits += expr.eval_bool(t).unwrap() as usize;
        }
    });

    // Block kernel over a prebuilt block (the build is measured — and
    // amortised — separately, as in the real data path).
    let mut block = ColumnBlock::new();
    block.fill_from_tuples(tuples);
    let mut masks = BlockMasks::default();
    let mut scratch = EvalScratch::new();
    let block_ns = measure(|| {
        expr.eval_block(&block, &mut masks, &mut scratch);
    });

    // Per-batch block build.
    let build_ns = measure(|| {
        block.fill_from_tuples(tuples);
    });

    // Cross-check: every row decided, bit-identical to the oracle.
    expr.eval_block(&block, &mut masks, &mut scratch);
    for (r, t) in tuples.iter().enumerate() {
        assert!(masks.known.get(r), "{name}: all-float row {r} undecided");
        assert_eq!(
            masks.truth.get(r),
            expr.eval_bool(t).unwrap(),
            "{name}: row {r} diverged from the scalar oracle"
        );
    }
    assert_eq!(masks.truth.count(), hits, "{name}: hit counts diverged");

    Row {
        shape: name,
        batch: tuples.len(),
        scalar_ns_per_row: scalar_ns / rows,
        block_ns_per_row: block_ns / rows,
        build_ns_per_row: build_ns / rows,
        speedup: scalar_ns / block_ns,
    }
}

fn main() {
    println!("Fused predicates — scalar eval vs columnar block kernels");
    println!("========================================================\n");

    let funcs = FunctionRegistry::with_builtins();
    let s = schema();
    let compiled: Vec<(&'static str, CompiledExpr)> = shapes()
        .into_iter()
        .map(|(name, text)| {
            let e = compile(&parse_expr(text).unwrap(), &s, &funcs).unwrap();
            let dbg = format!("{e:?}");
            assert!(
                ["Band", "Cmp", "AndAll", "OrAll"]
                    .iter()
                    .any(|p| dbg.starts_with(p)),
                "{name} must fuse: {dbg}"
            );
            (name, e)
        })
        .collect();

    println!(
        "{:>8} {:>6} {:>14} {:>14} {:>14} {:>9}",
        "shape", "batch", "scalar ns/row", "block ns/row", "build ns/row", "speedup"
    );
    let mut results = Vec::new();
    for (name, expr) in &compiled {
        for batch in BATCHES {
            let tuples = workload(batch);
            let r = ab_shape(name, expr, &tuples);
            println!(
                "{:>8} {:>6} {:>14.1} {:>14.1} {:>14.1} {:>8.2}x",
                r.shape,
                r.batch,
                r.scalar_ns_per_row,
                r.block_ns_per_row,
                r.build_ns_per_row,
                r.speedup
            );
            results.push(r);
        }
        println!();
    }

    let block_ns = |shape: &str, batch: usize| {
        let r = results
            .iter()
            .find(|r| r.shape == shape && r.batch == batch);
        r.expect("every shape runs at every batch").block_ns_per_row
    };
    for batch in BATCHES {
        println!(
            "and_all / band block ns/row at batch {batch:>3}: {:.2}",
            block_ns("and_all", batch) / block_ns("band", batch)
        );
    }
    println!();

    // The committed claim: the block kernels beat the scalar path on
    // every fused shape once batches reach 16 rows.
    for r in results.iter().filter(|r| r.batch >= 16) {
        assert!(
            r.speedup > 1.0,
            "{} at batch {} must beat scalar ({:.2}x)",
            r.shape,
            r.batch,
            r.speedup
        );
    }
    println!("block kernels beat scalar on every shape at batch ≥ 16 ✓");
}
