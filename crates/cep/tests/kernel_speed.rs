//! Timing gate: the columnar block kernels (`CompiledExpr::eval_block`
//! over contiguous `f64` lanes) beat the scalar path (`eval_bool`, a
//! tuple at a time) on every fused shape of learned gesture queries once
//! a batch holds 16 rows. Release builds only; the bit-identity of the
//! two paths on the same shapes and rows is the `expr::block` unit test
//! `fused_shapes_decide_every_all_float_row_as_scalar_does`.
//!
//! It prints the ns/row table at batches 1, 16, 30 (the serving batch)
//! and 256, the table `ServerConfig::columnar_min_batch` is set from.
//!
//! ```sh
//! cargo test -q --release -p gesto-cep --test kernel_speed -- --include-ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use gesto_cep::expr::{compile, BlockMasks, EvalScratch};
use gesto_cep::{parse_expr, FunctionRegistry};
use gesto_stream::{ColumnBlock, SchemaBuilder, Tuple, Value};

/// Rows evaluated per timing: about a millisecond of scalar work.
const ROWS_PER_TIMING: usize = 65_536;
/// Timings per path and cell; the best one counts.
const TRIES: usize = 7;

/// Mean ns per row of `pass`, which evaluates `batch` rows per call.
fn ns_per_row(batch: usize, mut pass: impl FnMut()) -> f64 {
    let passes = ROWS_PER_TIMING.div_ceil(batch);
    let start = Instant::now();
    for _ in 0..passes {
        pass();
    }
    start.elapsed().as_nanos() as f64 / (passes * batch) as f64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn block_kernels_beat_scalar_at_batch_16_and_up() {
    let cols = ["x", "y", "z", "ax", "ay", "az", "bx", "by", "bz"];
    let schema = SchemaBuilder::new("kinect_t").timestamp("ts");
    let schema = cols
        .iter()
        .fold(schema, |s, c| s.float(*c))
        .build()
        .unwrap();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Value::Float((state % 1000) as f64 / 10.0)
    };
    let shapes = [
        ("band", "abs(x - 50) < 12"),
        ("cmp", "x > 50"),
        ("diff", "x - y > 20"),
        ("diff_band", "abs(x - y - 10) < 12"),
        ("dist", "dist(ax, ay, az, bx, by, bz) < 40"),
        (
            "and_all",
            "abs(x - 50) < 12 and abs(y - 50) < 12 and abs(z - 50) < 12",
        ),
        ("or_all", "x < 10 or abs(y - 50) < 5"),
    ];
    let funcs = FunctionRegistry::with_builtins();
    let (mut block, mut masks) = (ColumnBlock::new(), BlockMasks::default());
    let mut scratch = EvalScratch::new();
    let mut slower = Vec::new();

    println!(
        "{:>9} {:>5} {:>13} {:>12} {:>8}",
        "shape", "batch", "scalar ns/row", "block ns/row", "speedup"
    );
    for (name, text) in shapes {
        let expr = compile(&parse_expr(text).unwrap(), &schema, &funcs).unwrap();
        for batch in [1, 16, 30, 256] {
            let tuples: Vec<Tuple> = (0..batch)
                .map(|i| {
                    let mut values = vec![Value::Timestamp(i as i64 * 33)];
                    values.extend((0..cols.len()).map(|_| next()));
                    Tuple::new_unchecked(schema.clone(), values)
                })
                .collect();
            block.fill_from_tuples(&tuples);
            let mut scalar_pass = || {
                for t in &tuples {
                    black_box(expr.eval_bool(black_box(t)).unwrap());
                }
            };
            let mut block_pass = || {
                expr.eval_block(black_box(&block), &mut masks, &mut scratch);
                black_box(&masks);
            };
            // Alternate the two paths within each try, so a slow spell
            // of the host hits both; the best try of each counts.
            let (mut scalar, mut columnar) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..TRIES {
                scalar = scalar.min(ns_per_row(batch, &mut scalar_pass));
                columnar = columnar.min(ns_per_row(batch, &mut block_pass));
            }
            let speedup = scalar / columnar;
            println!("{name:>9} {batch:>5} {scalar:>13.1} {columnar:>12.1} {speedup:>7.2}x");
            if batch >= 16 && speedup <= 1.0 {
                slower.push(format!("{name} at batch {batch} ({speedup:.2}x)"));
            }
        }
    }
    assert!(
        slower.is_empty(),
        "block kernels must beat scalar: {slower:?}"
    );
}
