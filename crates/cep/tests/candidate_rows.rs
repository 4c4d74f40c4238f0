//! Match cost follows activity: `gesto_nfa_rows_stepped_total` (rows the
//! stepping loop visited) against `gesto_kernel_block_rows_total` (rows
//! presented to the kernels).
//!
//! The counters are process-global, so this file holds exactly one test:
//! its own process, nothing else stepping an NFA beside it.

use gesto_cep::metrics::{KERNEL_BLOCK_ROWS_TOTAL, NFA_ROWS_STEPPED_TOTAL};
use gesto_cep::{parse_pattern, FunctionRegistry, MatchScratch, NfaRuntime, SingleSchema};
use gesto_stream::{ColumnBlock, SchemaBuilder, Tuple, Value};

const ROWS: usize = 30;

#[test]
fn rows_stepped_follow_candidate_rows_not_block_rows() {
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
