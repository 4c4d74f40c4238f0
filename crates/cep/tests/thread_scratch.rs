//! The NFA's match scratch belongs to the stepping thread, not to the
//! plan instance (`plan.rs` module docs). A call that unwinds must leave
//! no torn match behind for the next plan the thread steps, and a call
//! nested inside another plan's UDF must step in a scratch of its own.
//! Everything here runs on the test's one thread, so every call shares
//! that thread's scratch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use gesto_cep::expr::Arity;
use gesto_cep::{parse_query, CepError, Detection, FunctionRegistry, PlanInstance, QueryPlan};
use gesto_stream::{Catalog, SchemaBuilder, SchemaRef, SharedViews, Tuple, Value};

fn schema() -> SchemaRef {
    SchemaBuilder::new("k")
        .timestamp("ts")
        .float("x")
        .build()
        .unwrap()
}

fn catalog(schema: &SchemaRef) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register_stream(schema.clone()).unwrap();
    catalog
}

fn tuple(schema: &SchemaRef, ts: i64, x: f64) -> Tuple {
    Tuple::new(schema.clone(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
}

/// Row `r` has `ts = 10 r` and `x = x(r)`.
fn stream(schema: &SchemaRef, rows: usize, x: impl Fn(usize) -> f64) -> Vec<Tuple> {
    (0..rows)
        .map(|r| tuple(schema, r as i64 * 10, x(r)))
        .collect()
}

fn plan(catalog: &Catalog, funcs: &FunctionRegistry, text: &str) -> Arc<QueryPlan> {
    QueryPlan::compile(parse_query(text).unwrap(), catalog, funcs).unwrap()
}

/// Steps `inst` over `tuples` as one batch and returns its detections.
fn push(
    inst: &mut PlanInstance,
    views: &mut SharedViews,
    tuples: &[Tuple],
) -> Result<Vec<Detection>, CepError> {
    views.begin_batch("k", tuples);
    let mut out = Vec::new();
    inst.push_batch_shared("k", tuples, views, &mut out)?;
    Ok(out)
}

/// What a comparison needs of a detection: gesture, start, end.
fn keys(detections: &[Detection]) -> Vec<(String, i64, i64)> {
    detections
        .iter()
        .map(|d| (d.gesture.clone(), d.started_at, d.ts))
        .collect()
}

#[test]
fn an_unwound_call_leaves_no_match_for_the_next_plan() {
    let schema = schema();
    let catalog = catalog(&schema);
    // `trip(ts, x)` is `x`, except that it panics on row 20.
    let funcs = FunctionRegistry::with_builtins();
    funcs.register(
        "trip",
        Arity::Exact(2),
        Arc::new(|args: &[Value]| {
            assert_ne!(args[0].as_i64(), Some(200), "trip: row 20");
            Ok(args[1].clone())
        }),
    );
    let a = plan(
        &catalog,
        &funcs,
        r#"SELECT "a" MATCHING k(trip(ts, x) < 1) -> k(x > 9);"#,
    );
    // Row 0 seeds, row 10 completes; the UDF runs on every row.
    let batch = stream(&schema, 30, |r| match r {
        0 => 0.5,
        10 => 10.0,
        _ => 5.0,
    });
    let mut views = SharedViews::new(&catalog);

    // Control: the first 20 rows alone complete exactly one match.
    let first20 = push(&mut a.instantiate(), &mut views, &batch[..20]).unwrap();
    assert_eq!(keys(&first20), [("a".to_owned(), 0, 100)]);

    // The whole batch completes that match at row 10, then unwinds at
    // row 20 before the match is drained.
    let mut torn = a.instantiate();
    let unwound = catch_unwind(AssertUnwindSafe(|| push(&mut torn, &mut views, &batch)));
    assert!(unwound.is_err(), "the UDF must panic on row 20");
    assert_eq!(torn.active_runs(), 0, "row 10 completed and consumed");
    assert_eq!(torn.detections(), 0, "the unwound call reported nothing");

    // The next call on this thread steps another plan over a batch that
    // matches nothing: the torn match must not surface there.
    let b = plan(
        &catalog,
        &funcs,
        r#"SELECT "b" MATCHING k(x < 1) -> k(x > 9);"#,
    );
    let mut next = b.instantiate();
    let quiet = stream(&schema, 30, |_| 5.0);
    assert!(push(&mut next, &mut views, &quiet).unwrap().is_empty());
    assert_eq!(next.detections(), 0);
}

#[test]
fn a_udf_that_steps_another_plan_nests_cleanly() {
    let schema = schema();
    let catalog = catalog(&schema);
    // Seeds on x = 0.5, completes on x = 10: both plans fire every
    // third row's cycle.
    let batch = stream(&schema, 60, |r| [0.5, 5.0, 10.0][r % 3]);
    let inner_text = r#"SELECT "inner" MATCHING k(x < 1) -> k(x > 9);"#;
    let outer_text = r#"SELECT "outer" MATCHING k(nest(ts, x) < 1) -> k(x > 9);"#;
    let builtins = FunctionRegistry::with_builtins();

    // One at a time: each plan alone, `nest` the identity on `x`.
    let inner_alone = {
        let mut views = SharedViews::new(&catalog);
        push(
            &mut plan(&catalog, &builtins, inner_text).instantiate(),
            &mut views,
            &batch,
        )
        .unwrap()
    };
    let identity = FunctionRegistry::with_builtins();
    identity.register(
        "nest",
        Arity::Exact(2),
        Arc::new(|args: &[Value]| Ok(args[1].clone())),
    );
    let outer_alone = {
        let mut views = SharedViews::new(&catalog);
        push(
            &mut plan(&catalog, &identity, outer_text).instantiate(),
            &mut views,
            &batch,
        )
        .unwrap()
    };
    assert_eq!(inner_alone.len(), 20, "the stream must match");
    assert_eq!(outer_alone.len(), 20, "the stream must match");

    // Nested: the outer plan's predicate steps the inner instance over
    // the row it is evaluated on (once per row, in row order), while the
    // outer call holds the thread's scratch.
    let inner = Arc::new(Mutex::new((
        plan(&catalog, &builtins, inner_text).instantiate(),
        SharedViews::new(&catalog),
        Vec::new(),
    )));
    let nesting = FunctionRegistry::with_builtins();
    let (stepped, row_schema) = (Arc::clone(&inner), schema.clone());
    nesting.register(
        "nest",
        Arity::Exact(2),
        Arc::new(move |args: &[Value]| {
            let row = [tuple(
                &row_schema,
                args[0].as_i64().unwrap(),
                args[1].as_f64().unwrap(),
            )];
            let (inst, views, out) = &mut *stepped.lock().unwrap();
            out.extend(push(inst, views, &row)?);
            Ok(args[1].clone())
        }),
    );
    let mut views = SharedViews::new(&catalog);
    let outer_nested = push(
        &mut plan(&catalog, &nesting, outer_text).instantiate(),
        &mut views,
        &batch,
    )
    .unwrap();

    assert_eq!(keys(&outer_nested), keys(&outer_alone));
    assert_eq!(keys(&inner.lock().unwrap().2), keys(&inner_alone));
}
