//! Equivalence of the transform-once data path with the seed's
//! per-route path.
//!
//! The refactored spine (shared view evaluation + slot-compiled
//! `kinect_t` + `Engine::push_batch` + shared-path shard workers) must
//! produce **bit-identical detections** to the seed semantics, where
//! every deployed query route ran its own private `Transformer` chain.
//! Those semantics live on as [`PerRouteReference`] (a dev fixture the
//! data path does not know about), which this test uses as the reference.
//!
//! The check sweeps randomised scenarios: different gesture sets (learned
//! transformed-view queries, raw-stream queries, hand-written sequences),
//! personas (height, position, rotation, sensor noise) and session
//! counts, through both the engine and the sharded server.

use std::collections::HashMap;
use std::sync::Arc;

use gesto::cep::fixtures::PerRouteReference;
use gesto::cep::{parse_query, Detection, Engine, QueryPlan};
use gesto::kinect::{
    frames_to_tuples, gestures, kinect_schema, GestureSpec, NoiseModel, Performer, Persona,
    SkeletonFrame, KINECT_STREAM,
};
use gesto::learn::query_gen::{generate_query, QueryStyle};
use gesto::learn::{Learner, LearnerConfig};
use gesto::serve::{affinity, BackpressurePolicy, Server, ServerConfig, SessionId};
use gesto::stream::Tuple;
use gesto::transform::{register_rpy, standard_catalog, TransformConfig, Transformer};
use parking_lot::Mutex;

/// Learns a gesture definition from 3 noisy samples (the bench helper,
/// inlined: gesto-bench is not a dependency of the facade).
fn learn(spec: &GestureSpec, seed_base: u64) -> gesto::learn::GestureDefinition {
    let persona = Persona::reference().with_noise(NoiseModel::realistic());
    let mut learner = Learner::new(LearnerConfig::default());
    for i in 0..3u64 {
        let mut p = Performer::new(persona.clone().with_seed(seed_base + i), 0);
        let frames = p.render(spec);
        let mut tr = Transformer::new(TransformConfig::default());
        let transformed: Vec<SkeletonFrame> = frames
            .iter()
            .filter_map(|f| tr.transform_frame(f))
            .collect();
        learner.add_sample_frames(&transformed).expect("sample");
    }
    learner.finalize(&spec.name).expect("finalizable")
}

/// The pool of queries scenarios draw from: learned queries over the
/// transformed view and the raw stream, plus hand-written patterns over
/// both sources.
fn query_pool() -> Vec<gesto::cep::Query> {
    let swipe = learn(&gestures::swipe_right(), 0);
    let circle = learn(&gestures::circle(), 100);
    let mut queries = vec![
        generate_query(&swipe, QueryStyle::TransformedView),
        generate_query(&circle, QueryStyle::TransformedView),
        generate_query(&swipe, QueryStyle::RawTorsoRelative),
        parse_query(
            r#"SELECT "hand_high_t"
               MATCHING kinect_t(rHand_y > 100) -> kinect_t(rHand_y < 0)
               within 2 seconds select first consume all;"#,
        )
        .unwrap(),
        parse_query(
            r#"SELECT "raw_sweep"
               MATCHING kinect(rHand_x - torso_x < -50) -> kinect(rHand_x - torso_x > 300)
               within 2 seconds;"#,
        )
        .unwrap(),
    ];
    // Learned queries share the definition name; disambiguate the raw
    // variant so sets can contain both.
    queries[2].name = "swipe_right_raw".into();
    queries
}

/// One scenario's frame workload: a few performances by a randomised
/// persona, including non-gesture idle movement (the circle performance
/// doubles as noise for the swipe queries and vice versa).
fn workload(seed: u64) -> Vec<SkeletonFrame> {
    let heights = [1250.0, 1500.0, 1741.0, 1950.0];
    let persona = Persona::reference()
        .with_height(heights[(seed % 4) as usize])
        .at(
            -600.0 + 300.0 * (seed % 5) as f64,
            2000.0 + 150.0 * (seed % 3) as f64,
        )
        .rotated(-0.9 + 0.45 * (seed % 5) as f64)
        .with_noise(if seed.is_multiple_of(2) {
            NoiseModel::realistic()
        } else {
            NoiseModel::sensor_only()
        })
        .with_seed(seed);
    let mut p = Performer::new(persona, 0);
    let mut frames = p.render_padded(&gestures::swipe_right(), 100, 300);
    frames.extend(p.render_padded(&gestures::circle(), 150, 250));
    frames.extend(p.render_padded(&gestures::swipe_right(), 50, 200));
    frames
}

/// Reference semantics: the seed's per-route path. Every plan runs its
/// own private view operators (one `Transformer` per route) and steps its
/// NFA one tuple at a time.
fn reference_detections(plans: &[Arc<QueryPlan>], tuples: &[Tuple]) -> Vec<Detection> {
    let mut instances: Vec<_> = plans.iter().map(PerRouteReference::new).collect();
    let mut out = Vec::new();
    for t in tuples {
        for inst in &mut instances {
            inst.push(KINECT_STREAM, t, &mut out)
                .expect("per-route push");
        }
    }
    out
}

/// One detection's full-fidelity comparison key: (gesture, ts,
/// started_at, event value strings).
type CanonicalDetection = (String, i64, i64, Vec<String>);

/// Canonical sort + full-fidelity comparison key. Events are kept as
/// value strings so a mismatch prints something readable.
fn canonical(mut ds: Vec<Detection>) -> Vec<CanonicalDetection> {
    ds.sort_by(|a, b| (&a.gesture, a.ts, a.started_at).cmp(&(&b.gesture, b.ts, b.started_at)));
    ds.into_iter()
        .map(|d| {
            let events = d
                .events
                .iter()
                .map(|t| format!("{}:{:?}", t.schema().name, t.values()))
                .collect();
            (d.gesture, d.ts, d.started_at, events)
        })
        .collect()
}

/// Tiny deterministic PRNG (xorshift64*) so the property sweep needs no
/// external crate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x2545F4914F6CDD1D) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random pattern in the learned-gesture dialect: 1–4 band steps,
/// optional (possibly nested) `within` constraints, random
/// select/consume policies.
fn random_pattern(rng: &mut Rng) -> String {
    let steps = 1 + rng.below(4) as usize;
    let step = |rng: &mut Rng| {
        let c = rng.below(100) as f64;
        let w = 5.0 + rng.below(30) as f64;
        format!("k(abs(x - {c}) < {w})")
    };
    if steps == 1 {
        return step(rng);
    }
    let mut body = if steps >= 3 && rng.below(2) == 0 {
        // Nested inner sequence with its own budget.
        let within = 1 + rng.below(2);
        let mut s = format!("({} -> {} within {within} seconds)", step(rng), step(rng));
        for _ in 2..steps {
            s.push_str(&format!(" -> {}", step(rng)));
        }
        s
    } else {
        let mut s = step(rng);
        for _ in 1..steps {
            s.push_str(&format!(" -> {}", step(rng)));
        }
        s
    };
    if rng.below(2) == 0 {
        body.push_str(&format!(" within {} seconds", 1 + rng.below(2)));
    }
    let select = ["first", "last", "all"][rng.below(3) as usize];
    let consume = ["all", "none"][rng.below(2) as usize];
    format!("{body} select {select} consume {consume}")
}

/// One match's full-fidelity comparison key: (ts, started_at, event
/// value strings).
type CanonicalMatch = (i64, i64, Vec<String>);

fn canonical_match(m: gesto::cep::MatchView<'_>) -> CanonicalMatch {
    let ev = m.events.iter().map(|t| format!("{:?}", t.values()));
    (m.ts, m.started_at, ev.collect())
}

/// What one [`lockstep`] run saw.
struct Lockstep {
    /// Matches delivered (up to the first error).
    matches: usize,
    /// The error that ended the run, if any.
    error: Option<String>,
    /// The oracle's final shed count.
    shed: u64,
    /// Whether the pattern carries time constraints.
    constrained: bool,
}

/// The NFA-level equivalence check. Steps `tuples` through two runtimes
/// of pattern `text` in lockstep: the oracle in one-tuple batches on the
/// scalar path (`block = None`), the other in batches of `split()` rows
/// — each with its `ColumnBlock` when `blocks`. After **every** batch
/// both must have delivered the same matches and hold the same
/// `active_runs` / `shed_runs`; a batch the oracle errors in must fail
/// with the same error after the same matches, which ends the run.
fn lockstep(
    text: &str,
    max_runs: usize,
    tuples: &[Tuple],
    mut split: impl FnMut() -> usize,
    blocks: bool,
) -> Lockstep {
    use gesto::cep::{parse_pattern, FunctionRegistry, MatchScratch, NfaRuntime, SingleSchema};

    let pattern = parse_pattern(text).expect("pattern parses");
    let funcs = FunctionRegistry::with_builtins();
    let resolver = SingleSchema(tuples[0].schema().clone());
    let compile = || {
        NfaRuntime::compile(&pattern, &resolver, &funcs)
            .unwrap()
            .with_max_runs(max_runs)
    };
    let (mut oracle, mut batched) = (compile(), compile());
    let (mut expect, mut got) = (MatchScratch::new(), MatchScratch::new());
    let mut block = gesto::stream::ColumnBlock::new();
    let mut seen = Lockstep {
        matches: 0,
        error: None,
        shed: 0,
        constrained: !oracle.program().constraints().is_empty(),
    };
    let mut rest = tuples;
    while !rest.is_empty() && seen.error.is_none() {
        let (chunk, tail) = rest.split_at(split().clamp(1, rest.len()));
        rest = tail;
        let at = format!(
            "`{text}`, batch ending at row {}",
            tuples.len() - rest.len()
        );

        let expect_result = chunk.iter().try_for_each(|t| {
            oracle.advance_block_into("k", std::slice::from_ref(t), None, &mut expect)
        });
        if blocks {
            block.fill_from_tuples(chunk);
        }
        let got_result = batched.advance_block_into("k", chunk, blocks.then_some(&block), &mut got);

        let message = |r: Result<(), gesto::cep::CepError>| r.err().map(|e| e.to_string());
        seen.error = message(expect_result);
        assert_eq!(message(got_result), seen.error, "{at}: error diverged");
        let delivered: Vec<_> = got.matches().map(canonical_match).collect();
        let expected: Vec<_> = expect.matches().map(canonical_match).collect();
        assert_eq!(delivered, expected, "{at}: matches diverged");
        assert_eq!(
            (batched.active_runs(), batched.shed_runs()),
            (oracle.active_runs(), oracle.shed_runs()),
            "{at}: (active_runs, shed_runs) diverged"
        );
        seen.matches += expected.len();
        expect.clear();
        got.clear();
    }
    seen.shed = oracle.shed_runs();
    seen
}

/// Tuples of the one-column stream `k(ts, x)` the NFA-level checks run
/// over, from `(ts, x)` pairs.
fn k_tuples(rows: impl IntoIterator<Item = (i64, gesto::stream::Value)>) -> Vec<Tuple> {
    use gesto::stream::{SchemaBuilder, Value};
    let schema = SchemaBuilder::new("k")
        .timestamp("ts")
        .float("x")
        .build()
        .unwrap();
    rows.into_iter()
        .map(|(ts, x)| Tuple::new(schema.clone(), vec![Value::Timestamp(ts), x]).unwrap())
        .collect()
}

#[test]
fn batched_nfa_advance_matches_single_tuple_advance() {
    use gesto::stream::Value;

    let mut produced = 0usize;
    let mut shed_hit = false;
    let mut expiry_hit = false;
    for seed in 0..40u64 {
        let mut rng = Rng::new(seed + 1);
        // A random gesture set: every pattern steps the same stream.
        for _ in 0..(1 + rng.below(3)) {
            let text = random_pattern(&mut rng);
            let max_runs = [1usize, 2, 4, 1024][rng.below(4) as usize];
            // Random workload: mostly increasing timestamps with gaps
            // long enough to expire `within` budgets.
            let mut ts = 0i64;
            let tuples = k_tuples((0..300).map(|_| {
                ts += rng.below(400) as i64;
                (ts, Value::Float(rng.f64() * 110.0))
            }));
            // Random batch splits over the same stream, scalar path.
            let split = || 1 + rng.below(64) as usize;
            let seen = lockstep(&text, max_runs, &tuples, split, false);
            produced += seen.matches;
            shed_hit |= seen.shed > 0;
            expiry_hit |= seen.constrained;
        }
    }
    assert!(produced > 100, "sweep must actually match ({produced})");
    assert!(shed_hit, "sweep must exercise max_runs shedding");
    assert!(expiry_hit, "sweep must exercise time constraints");
}

/// A random value for a float-typed slot, heavy on the block kernels'
/// fallback lanes: `Null`s (validity bitmap), `Int`s widening into the
/// float slot and `NaN`/`±inf` floats (deferred to the scalar path next
/// to plain floats).
fn messy_value(rng: &mut Rng) -> gesto::stream::Value {
    use gesto::stream::Value;
    match rng.below(10) {
        0 | 1 => Value::Null,
        2 => Value::Int(rng.below(110) as i64),
        3 => Value::Float(f64::NAN),
        4 => Value::Float(f64::INFINITY * if rng.below(2) == 0 { 1.0 } else { -1.0 }),
        _ => Value::Float(rng.f64() * 110.0),
    }
}

/// Pins the block kernels bit-identical to the scalar oracle on
/// NaN/Null-heavy data: for every row a kernel claims to know, the
/// scalar evaluation must return `Ok` with exactly the value the masks
/// encode; rows whose scalar evaluation errors (NaN comparisons,
/// incomparable types) must never be claimed.
#[test]
fn block_kernels_match_scalar_oracle_on_nan_null_heavy_rows() {
    use gesto::cep::expr::{compile, BlockMasks, EvalScratch};
    use gesto::cep::{parse_expr, FunctionRegistry};
    use gesto::stream::{ColumnBlock, SchemaBuilder, Value};

    let schema = SchemaBuilder::new("k")
        .timestamp("ts")
        .float("x")
        .float("y")
        .float("ax")
        .float("ay")
        .float("az")
        .float("bx")
        .float("by")
        .float("bz")
        .build()
        .unwrap();
    let funcs = FunctionRegistry::with_builtins();
    let exprs = [
        "abs(x - 40) < 25",
        "x > 55",
        "x - y <= 10",
        "x = 40",
        "x != 40",
        "dist(ax, ay, az, bx, by, bz) < 60",
        "abs(x - 40) < 25 and abs(y - 40) < 25",
        "abs(x - 40) < 25 and dist(ax, ay, az, bx, by, bz) < 60 and y >= 10",
        "x < 10 or y < 10 or x > 100",
        "(abs(x - 40) < 25 and y < 50) or x > 100",
    ]
    .map(|text| compile(&parse_expr(text).unwrap(), &schema, &funcs).unwrap());

    let mut known_rows = 0usize;
    let mut fallback_rows = 0usize;
    let mut null_rows = 0usize;
    let mut error_rows = 0usize;
    let mut block = ColumnBlock::new();
    let mut masks = BlockMasks::default();
    let mut scratch = EvalScratch::new();
    for seed in 0..30u64 {
        let mut rng = Rng::new(seed + 0xB10C);
        let tuples: Vec<Tuple> = (0..97)
            .map(|i| {
                let mut vals = vec![gesto::stream::Value::Timestamp(i)];
                vals.extend((1..schema.len()).map(|_| messy_value(&mut rng)));
                Tuple::new(schema.clone(), vals).unwrap()
            })
            .collect();
        block.fill_from_tuples(&tuples);
        for expr in &exprs {
            expr.eval_block(&block, &mut masks, &mut scratch);
            for (r, t) in tuples.iter().enumerate() {
                let scalar = expr.eval(t);
                if !masks.known.get(r) {
                    fallback_rows += 1;
                    error_rows += usize::from(scalar.is_err());
                    continue;
                }
                known_rows += 1;
                let expect = match (masks.truth.get(r), masks.null.get(r)) {
                    (true, false) => Value::Bool(true),
                    (false, true) => {
                        null_rows += 1;
                        Value::Null
                    }
                    (false, false) => Value::Bool(false),
                    (true, true) => panic!("row {r}: truth and null both set"),
                };
                match scalar {
                    Ok(v) => assert_eq!(v, expect, "seed {seed} row {r} of {expr:?}"),
                    Err(e) => panic!("seed {seed} row {r}: kernel claimed an erroring row: {e}"),
                }
            }
        }
    }
    assert!(known_rows > 10_000, "kernels must decide the float bulk");
    assert!(fallback_rows > 1_000, "sweep must exercise fallback lanes");
    assert!(null_rows > 500, "sweep must exercise known-Null rows");
    assert!(error_rows > 100, "sweep must hit scalar error paths");
}

/// The NFA stepping over blocks must be bit-identical to the
/// single-tuple reference on Null/Int-heavy frames (the fallback lanes),
/// across random patterns, batch splits, shedding and expiry.
#[test]
fn block_nfa_advance_matches_single_tuple_advance_on_null_heavy_frames() {
    use gesto::stream::Value;

    let mut produced = 0usize;
    for seed in 0..25u64 {
        let mut rng = Rng::new(seed + 0xF00D);
        let text = random_pattern(&mut rng);
        let max_runs = [2usize, 4, 1024][rng.below(3) as usize];
        // Null/Int-heavy workload — no NaN/±inf here, so the scalar
        // reference never errors and full streams compare.
        let mut ts = 0i64;
        let tuples = k_tuples((0..300).map(|_| {
            ts += rng.below(400) as i64;
            let x = match rng.below(5) {
                0 => Value::Null,
                1 => Value::Int(rng.below(110) as i64),
                _ => Value::Float(rng.f64() * 110.0),
            };
            (ts, x)
        }));
        let split = || 1 + rng.below(64) as usize;
        let seen = lockstep(&text, max_runs, &tuples, split, true);
        assert_eq!(seen.error, None, "seed {seed}");
        produced += seen.matches;
    }
    assert!(produced > 50, "sweep must actually match ({produced})");
}

/// NaN frames make ordering predicates *error* on the scalar path; the
/// masks must neither swallow nor reorder those errors: the block path
/// errors on exactly the same stream prefix, with the same message, the
/// same matches delivered before the failure and the same run state
/// left behind.
#[test]
fn block_nfa_preserves_scalar_error_behaviour_on_nan_frames() {
    use gesto::stream::Value;

    let mut errors_hit = 0usize;
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed + 0xA11);
        let text = random_pattern(&mut rng);
        let mut ts = 0i64;
        let tuples = k_tuples((0..120).map(|_| {
            ts += rng.below(300) as i64;
            let x = if rng.below(12) == 0 {
                f64::NAN
            } else {
                rng.f64() * 110.0
            };
            (ts, Value::Float(x))
        }));
        // One batch over the whole stream: it must fail at the tuple
        // the one-tuple reference fails at.
        let seen = lockstep(&text, 1024, &tuples, || tuples.len(), true);
        errors_hit += usize::from(seen.error.is_some());
    }
    assert!(errors_hit >= 3, "sweep must hit NaN errors ({errors_hit})");
}

/// 30 rows of `k(ts, x)` at 33 ms spacing, `x = 50` except where
/// `overrides` says otherwise — `50` hits no step of the patterns below,
/// so every other row is one the block path skips.
fn mostly_idle_block(overrides: &[(usize, f64)]) -> Vec<Tuple> {
    k_tuples((0..30).map(|row| {
        let x = overrides
            .iter()
            .find(|(r, _)| *r == row)
            .map_or(50.0, |o| o.1);
        (row as i64 * 33, gesto::stream::Value::Float(x))
    }))
}

/// Steps first reached in the middle of a block get their masks on
/// demand: seed at row 3, step 1 at row 7, step 2 at row 20 of one
/// block, then a row whose predicate errors scalar-side.
#[test]
fn steps_first_reached_mid_block_match_single_tuple_stepping() {
    let text = "k(x < 1) -> k(abs(x - 70) < 5) -> k(x > 90) within 10 seconds";
    let hits = [(3, 0.5), (7, 70.0), (20, 95.0)];
    let seen = lockstep(text, 1024, &mostly_idle_block(&hits), || 30, true);
    assert_eq!((seen.matches, seen.error), (1, None));

    let mut with_nan = hits.to_vec();
    with_nan.push((25, f64::NAN));
    let seen = lockstep(text, 1024, &mostly_idle_block(&with_nan), || 30, true);
    assert_eq!(seen.matches, 1, "the match precedes the failing row");
    assert!(seen.error.is_some(), "NaN errors the seed predicate");

    // The failing row reached while a run waits at an on-demand step.
    let seen = lockstep(
        text,
        1024,
        &mostly_idle_block(&[(3, 0.5), (7, 70.0), (12, f64::NAN), (20, 95.0)]),
        || 30,
        true,
    );
    assert_eq!(seen.matches, 0);
    assert!(seen.error.is_some());
}

/// A `within` budget blown by a timestamp *inside a skipped span* —
/// neither the span's first nor its last row, timestamps non-monotone —
/// must expire the run exactly as one-tuple stepping does.
#[test]
fn skipped_span_expiry_matches_single_tuple_stepping() {
    use gesto::stream::Value;
    let text = "k(x < 1) -> k(x > 90) within 1 seconds";
    let trace = |spike: i64| {
        let rows = [
            (0, 0.5),
            (100, 50.0),
            (spike, 50.0),
            (200, 50.0),
            (300, 50.0),
            (400, 95.0),
        ];
        k_tuples(rows.map(|(ts, x)| (ts, Value::Float(x))))
    };
    let seen = lockstep(text, 1024, &trace(1500), || 6, true);
    assert_eq!(seen.matches, 0, "the run died at ts 1500, mid-span");
    let seen = lockstep(text, 1024, &trace(150), || 6, true);
    assert_eq!(seen.matches, 1, "control: without the spike it completes");
}

/// `max_runs` shedding must not count runs that expired inside a skipped
/// span: they are pruned before the next visited row seeds.
#[test]
fn shedding_ignores_runs_expired_in_a_skipped_span() {
    use gesto::stream::Value;
    let text = "k(x < 1) -> k(x > 90) within 1 seconds select all consume none";
    let trace = |spike: i64| {
        // The last seed row steps back in time, so only the skipped
        // row's timestamp can have expired the first two runs.
        let rows = [(0, 0.5), (10, 0.5), (spike, 50.0), (20, 0.5)];
        k_tuples(rows.map(|(ts, x)| (ts, Value::Float(x))))
    };
    let seen = lockstep(text, 2, &trace(2000), || 4, true);
    assert_eq!(
        seen.shed, 0,
        "both old runs expired at ts 2000: nothing to shed"
    );
    let seen = lockstep(text, 2, &trace(15), || 4, true);
    assert_eq!(seen.shed, 1, "control: without the spike the cap sheds");
}

#[test]
fn engine_shared_path_matches_seed_per_route_path() {
    let pool = query_pool();
    let schema = kinect_schema();
    let mut non_empty = 0usize;
    for seed in 0..8u64 {
        // Random subset of the pool (always non-empty).
        let mask = (seed * 2 + 1) % 31;
        let set: Vec<_> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, q)| q.clone())
            .collect();
        assert!(!set.is_empty());

        let catalog = standard_catalog();
        let engine = Engine::new(catalog);
        register_rpy(engine.functions());
        let plans: Vec<_> = set
            .iter()
            .map(|q| engine.compile(q.clone()).expect("compiles"))
            .collect();
        for p in &plans {
            engine.deploy_plan(p.clone()).expect("deploys");
        }

        let tuples = frames_to_tuples(&workload(seed), &schema);
        let expect = canonical(reference_detections(&plans, &tuples));
        let got = canonical(engine.push_batch(KINECT_STREAM, &tuples).expect("push"));
        assert_eq!(got, expect, "seed {seed}: shared path diverged");
        non_empty += usize::from(!expect.is_empty());

        // Stats must agree with the reference detections too.
        let mut per_gesture: HashMap<&str, u64> = HashMap::new();
        for (g, ..) in &expect {
            *per_gesture.entry(g.as_str()).or_insert(0) += 1;
        }
        for s in engine.stats_all() {
            assert_eq!(
                s.detections,
                per_gesture.get(s.name.as_str()).copied().unwrap_or(0),
                "seed {seed}: stats for {}",
                s.name
            );
        }
    }
    assert!(non_empty >= 4, "sweep must actually detect gestures");
}

/// Runs a fresh server with `config` over the per-session workloads and
/// returns every session's canonical detections (index = session id)
/// plus the server's final metrics.
fn server_detections(
    set: &[gesto::cep::Query],
    sessions: &[Vec<SkeletonFrame>],
    config: ServerConfig,
) -> (Vec<Vec<CanonicalDetection>>, gesto::serve::ServerMetrics) {
    // Varying chunk sizes per session so batches of different sessions
    // interleave differently at every shard count.
    server_detections_over(standard_catalog(), set, sessions, config, |s| 24 + s * 7)
}

/// [`server_detections`] over a caller-built catalog, session `s`
/// pushing `chunk(s)` frames per batch.
fn server_detections_over(
    catalog: Arc<gesto::stream::Catalog>,
    set: &[gesto::cep::Query],
    sessions: &[Vec<SkeletonFrame>],
    config: ServerConfig,
    chunk: impl Fn(usize) -> usize,
) -> (Vec<Vec<CanonicalDetection>>, gesto::serve::ServerMetrics) {
    let funcs = {
        let e = Engine::new(catalog.clone());
        register_rpy(e.functions());
        e.functions().clone()
    };
    let plans: Vec<_> = set
        .iter()
        .map(|q| QueryPlan::compile(q.clone(), catalog.as_ref(), &funcs).expect("compiles"))
        .collect();
    let server = Server::with_parts(
        config.with_backpressure(BackpressurePolicy::Block),
        catalog,
        funcs,
        Arc::new(gesto::db::GestureStore::new()),
    );
    for p in &plans {
        server.deploy_plan(p.clone()).expect("deploys");
    }
    let hits: Arc<Mutex<HashMap<SessionId, Vec<Detection>>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink_hits = hits.clone();
    server.on_detection(Arc::new(move |session, d: &Detection| {
        sink_hits.lock().entry(session).or_default().push(d.clone());
    }));
    for (s, frames) in sessions.iter().enumerate() {
        for chunk in frames.chunks(chunk(s)) {
            server
                .push_batch(SessionId(s as u64), chunk.to_vec())
                .expect("push");
        }
    }
    server.drain().expect("drain");
    let mut hits = hits.lock();
    let out = (0..sessions.len())
        .map(|s| canonical(hits.remove(&SessionId(s as u64)).unwrap_or_default()))
        .collect();
    let metrics = server.metrics();
    server.shutdown();
    (out, metrics)
}

/// The scale-out property: sharding is a pure partitioning of work.
/// For any gesture set and session population, every shard count and
/// either pinning mode produces **bit-identical** per-session detections
/// — and therefore exact conservation of the total detection count —
/// relative to the 1-shard run. Every run also loses and sheds no frame
/// under the blocking policy, and its shard workers never wait on a
/// shared structure. A pinned shard reports its placement core (never
/// core 0) wherever the host lets a thread
/// pin there, and runs unpinned where affinity is restricted, so this
/// holds on any machine.
#[test]
fn shard_count_and_pinning_do_not_change_detections() {
    let pool = query_pool();
    let mut rng = Rng::new(0x5AA5);
    let mut detected = 0usize;
    let cores = affinity::host_cores();
    // Whether a thread may pin to shard `i`'s placement core here: a
    // throwaway thread tries, so the test thread stays unpinned.
    let pinned_core = |i| match affinity::placement(i, cores) {
        Some(cpu)
            if std::thread::spawn(move || affinity::pin_current_thread(cpu))
                .join()
                .unwrap() =>
        {
            cpu as i64
        }
        _ => -1,
    };
    for case in 0..2u64 {
        // Random non-empty query subset and a session population whose
        // size is not a multiple of any shard count under test.
        let mask = 1 + rng.below(31);
        let set: Vec<_> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, q)| q.clone())
            .collect();
        let sessions: Vec<Vec<SkeletonFrame>> = (0..3 + case as usize * 2)
            .map(|_| workload(rng.below(8)))
            .collect();

        let frames: usize = sessions.iter().map(Vec::len).sum();
        let sharded = |shards, pin| {
            let config = ServerConfig::new().with_shards(shards).with_pin_shards(pin);
            let (got, m) = server_detections(&set, &sessions, config);
            assert_eq!(m.frames_in(), frames as u64, "blocking policy lost frames");
            assert_eq!(m.shed_frames(), 0, "blocking policy must not shed");
            assert_eq!(m.sessions(), sessions.len(), "session registry");
            assert_eq!(
                m.contention(),
                0,
                "a shard worker waited on a shared structure"
            );
            let reported: Vec<i64> = m.shards.iter().map(|s| s.pinned_core).collect();
            let expected: Vec<i64> = (0..shards)
                .map(|i| if pin { pinned_core(i) } else { -1 })
                .collect();
            assert_eq!(
                reported, expected,
                "{shards} shards (pin={pin}): pinned cores"
            );
            got
        };
        let baseline = sharded(1, false);
        let total: usize = baseline.iter().map(Vec::len).sum();
        detected += total;

        for (shards, pin) in [
            (2, false),
            (4, false),
            (8, false),
            (2, true),
            (4, true),
            (8, true),
        ] {
            let got = sharded(shards, pin);
            let conserved: usize = got.iter().map(Vec::len).sum();
            assert_eq!(
                conserved, total,
                "case {case}: {shards} shards (pin={pin}) lost/duplicated detections"
            );
            assert_eq!(
                got, baseline,
                "case {case}: {shards} shards (pin={pin}) diverged from 1 shard"
            );
        }
    }
    assert!(detected > 0, "sweep must actually detect gestures");
}

/// Server sessions against the per-route reference, across the one dial
/// of the scalar-vs-columnar choice: the default threshold (every full
/// chunk lands on the columnar side, a short trailing chunk may not),
/// `0` (every batch columnar) and `usize::MAX` (every batch scalar).
/// Detections must be identical to the reference — hence to each other —
/// and the per-batch counters must land on the expected side.
#[test]
fn server_sessions_match_seed_per_route_path() {
    let pool = query_pool();
    let schema = kinect_schema();
    let set = &pool[..4];

    // The reference compiles its own plans (the server compiles the same
    // queries against its own catalog).
    let catalog = standard_catalog();
    let engine = Engine::new(catalog);
    register_rpy(engine.functions());
    let plans: Vec<_> = set
        .iter()
        .map(|q| engine.compile(q.clone()).expect("compiles"))
        .collect();

    // Two sessions share each workload seed → identical expectations on
    // different shards.
    let sessions: Vec<Vec<SkeletonFrame>> = (0..6).map(|s| workload(s / 2)).collect();
    let expect: Vec<_> = sessions
        .iter()
        .map(|frames| {
            canonical(reference_detections(
                &plans,
                &frames_to_tuples(frames, &schema),
            ))
        })
        .collect();
    assert!(
        expect.iter().all(|e| !e.is_empty()),
        "every session detects"
    );

    let default_threshold = ServerConfig::new().columnar_min_batch;
    for threshold in [default_threshold, 0, usize::MAX] {
        let mut config = ServerConfig::new().with_shards(2);
        config.columnar_min_batch = threshold;
        let (got, metrics) = server_detections(set, &sessions, config);
        assert_eq!(
            got, expect,
            "diverged from per-route path at columnar_min_batch = {threshold}"
        );

        let columnar: u64 = metrics.shards.iter().map(|m| m.columnar_batches).sum();
        let scalar: u64 = metrics.shards.iter().map(|m| m.block_skips).sum();
        let batches: u64 = metrics.shards.iter().map(|m| m.batches_in).sum();
        assert_eq!(columnar + scalar, batches, "every batch takes one side");
        match threshold {
            0 => assert_eq!(scalar, 0, "threshold 0: every batch columnar"),
            usize::MAX => assert_eq!(columnar, 0, "threshold MAX: every batch scalar"),
            _ => assert!(columnar > 0, "default: full chunks are columnar"),
        }
    }
}

/// A plan whose two sources are both *views* — `kinect_t` and a mirror
/// view over raw `kinect` — has no route on the raw stream, so the shard
/// builds no raw tuples for it and the frame-at-a-time loop of a
/// multi-source plan must take its frame count from the views. One-,
/// seven- and thirty-frame batches, against the per-route reference.
#[test]
fn two_view_plan_without_a_raw_route_matches_per_route_path() {
    use gesto::stream::{ops::MapOp, Catalog, Value, ViewDef};
    use gesto::transform::register_kinect_t;

    let mut catalog = Catalog::new();
    catalog.register_stream(kinect_schema()).unwrap();
    register_kinect_t(&mut catalog, TransformConfig::default()).unwrap();
    // x becomes -|rHand_x - torso_x|: the hand's distance from the torso,
    // mirrored.
    let mirror = gesto::kinect::schema_named("kinect_m", "");
    let x = mirror.index_of("rHand_x").unwrap();
    let torso_x = mirror.index_of("torso_x").unwrap();
    let out = mirror.clone();
    catalog
        .register_view(ViewDef {
            name: "kinect_m".into(),
            input: KINECT_STREAM.into(),
            schema: mirror,
            factory: Arc::new(move || {
                let out = out.clone();
                Box::new(MapOp::new("mirror", out.clone(), move |t: &Tuple| {
                    let mut values = t.values().to_vec();
                    let dx = t.values()[x].as_f64()? - t.values()[torso_x].as_f64()?;
                    values[x] = Value::Float(-dx.abs());
                    Some(Tuple::new_unchecked(out.clone(), values))
                }))
            }),
        })
        .unwrap();
    let catalog = Arc::new(catalog);
    let set = [
        parse_query(
            r#"SELECT "there_and_mirrored"
               MATCHING kinect_t(rHand_x < 100) -> kinect_m(rHand_x < -300)
               within 2 seconds select first consume all;"#,
        )
        .unwrap(),
        query_pool().swap_remove(0),
    ];
    let plans: Vec<_> = {
        let engine = Engine::new(catalog.clone());
        register_rpy(engine.functions());
        set.iter()
            .map(|q| engine.compile(q.clone()).expect("compiles"))
            .collect()
    };
    assert!(plans[0].routes().len() == 2 && plans[0].routes().iter().all(|r| !r.views.is_empty()));

    let schema = kinect_schema();
    let sessions: Vec<Vec<SkeletonFrame>> = (0..3).map(workload).collect();
    let expect: Vec<_> = sessions
        .iter()
        .map(|frames| {
            canonical(reference_detections(
                &plans,
                &frames_to_tuples(frames, &schema),
            ))
        })
        .collect();
    assert!(expect
        .iter()
        .all(|e| e.iter().any(|d| d.0 == "there_and_mirrored")));
    let sizes = [1, 7, 30];
    let config = ServerConfig::new().with_shards(2);
    let (got, _) = server_detections_over(catalog, &set, &sessions, config, |s| sizes[s]);
    assert_eq!(got, expect);
}
