//! Property-based tests over cross-crate invariants.

use gesto::cep::{parse_expr, parse_query, BinOp, Expr, Pattern, Query};
use gesto::kinect::{Joint, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto::learn::merging::resample_to;
use gesto::learn::sampling::{sample_path, CentroidMode, Strategy as SamplingStrategy};
use gesto::learn::{Metric, PathPoint, PoseWindow, Threshold};
use gesto::transform::{TransformConfig, Transformer};
use proptest::prelude::*;

// ---------- generators ----------

fn arb_value() -> impl proptest::strategy::Strategy<Value = f64> {
    -1000.0..1000.0f64
}

/// Keywords of the query language that cannot be column/source names.
const RESERVED: &[&str] = &[
    "and", "or", "not", "true", "false", "within", "select", "consume", "matching",
];

fn ident() -> impl proptest::strategy::Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("reserved word", |s| !RESERVED.contains(&s.as_str()))
}

fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        arb_value()
            .prop_map(|v| Expr::Literal(gesto::stream::Value::Float((v * 100.0).round() / 100.0))),
        ident().prop_map(Expr::Column),
    ];
    leaf.prop_recursive(depth, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Add, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Mul, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::lt(a, b)),
            inner.clone().prop_map(Expr::abs),
        ]
    })
    .boxed()
}

fn arb_predicate() -> BoxedStrategy<Expr> {
    // Comparisons only (event predicates are boolean).
    (arb_expr(2), arb_expr(2))
        .prop_map(|(a, b)| Expr::lt(a, b))
        .boxed()
}

fn arb_pattern() -> BoxedStrategy<Pattern> {
    let event = (ident(), arb_predicate()).prop_map(|(src, pred)| Pattern::event(src, pred));
    event
        .prop_recursive(3, 16, 3, |inner| {
            (
                proptest::collection::vec(inner, 1..4),
                proptest::option::of(1i64..5000),
            )
                .prop_map(|(steps, within)| Pattern::sequence(steps, within))
        })
        .boxed()
}

fn arb_path(max_len: usize) -> BoxedStrategy<Vec<PathPoint>> {
    proptest::collection::vec(
        (proptest::array::uniform3(-900.0..900.0f64)).prop_map(|c| c.to_vec()),
        1..max_len,
    )
    .prop_map(|feats| {
        feats
            .into_iter()
            .enumerate()
            .map(|(i, feat)| PathPoint::new(i as i64 * 33, feat))
            .collect()
    })
    .boxed()
}

// ---------- parser round trips ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expr_display_parse_roundtrip(e in arb_expr(3)) {
        let text = e.to_string();
        let parsed = parse_expr(&text)
            .unwrap_or_else(|err| panic!("'{text}' must parse: {err}"));
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn query_display_parse_roundtrip(p in arb_pattern(), name in "[a-zA-Z][a-zA-Z0-9_ ]{0,12}") {
        let q = Query::new(name, p);
        let text = q.to_query_text();
        let parsed = parse_query(&text)
            .unwrap_or_else(|err| panic!("generated query must parse: {err}\n{text}"));
        prop_assert_eq!(parsed, q);
    }
}

// ---------- window algebra ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_commutes_and_contains(
        ca in proptest::array::uniform3(-500.0..500.0f64),
        wa in proptest::array::uniform3(0.0..200.0f64),
        cb in proptest::array::uniform3(-500.0..500.0f64),
        wb in proptest::array::uniform3(0.0..200.0f64),
    ) {
        let a = PoseWindow::new(ca.to_vec(), wa.to_vec());
        let b = PoseWindow::new(cb.to_vec(), wb.to_vec());
        let u1 = a.union(&b);
        let u2 = b.union(&a);
        for d in 0..3 {
            prop_assert!((u1.center[d] - u2.center[d]).abs() < 1e-9);
            prop_assert!((u1.width[d] - u2.width[d]).abs() < 1e-9);
            prop_assert!(u1.min(d) <= a.min(d) + 1e-9);
            prop_assert!(u1.max(d) >= b.max(d) - 1e-9);
        }
        prop_assert!(u1.volume() >= a.volume().max(b.volume()) - 1e-6);
        // Union intersects both inputs.
        prop_assert!(u1.intersects(&a) && u1.intersects(&b));
    }

    #[test]
    fn intersection_symmetric_and_contained(
        ca in proptest::array::uniform3(-300.0..300.0f64),
        wa in proptest::array::uniform3(1.0..300.0f64),
        cb in proptest::array::uniform3(-300.0..300.0f64),
        wb in proptest::array::uniform3(1.0..300.0f64),
    ) {
        let a = PoseWindow::new(ca.to_vec(), wa.to_vec());
        let b = PoseWindow::new(cb.to_vec(), wb.to_vec());
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(i.volume() <= a.volume() + 1e-6);
            prop_assert!(i.volume() <= b.volume() + 1e-6);
            // Intersection centre lies in both.
            prop_assert!(a.contains(&i.center) && b.contains(&i.center));
        }
    }

    #[test]
    fn extend_to_makes_containing(
        c in proptest::array::uniform3(-500.0..500.0f64),
        w in proptest::array::uniform3(0.0..100.0f64),
        p in proptest::array::uniform3(-800.0..800.0f64),
    ) {
        let mut win = PoseWindow::new(c.to_vec(), w.to_vec());
        let before = win.clone();
        win.extend_to(&p);
        prop_assert!(win.contains(&p));
        // Extension is monotone: old bounds still inside.
        for d in 0..3 {
            prop_assert!(win.min(d) <= before.min(d) + 1e-9);
            prop_assert!(win.max(d) >= before.max(d) - 1e-9);
        }
    }
}

// ---------- sampling invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sampling_preserves_order_and_start(path in arb_path(80)) {
        let out = sample_path(&path, SamplingStrategy::default());
        prop_assert!(!out.is_empty());
        prop_assert_eq!(&out[0], &path[0]);
        for w in out.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts);
        }
        prop_assert!(out.len() <= path.len() + 1);
    }

    #[test]
    fn sampling_monotone_in_threshold(path in arb_path(60)) {
        let count = |f: f64| sample_path(&path, SamplingStrategy::DistanceBased {
            metric: Metric::Euclidean,
            threshold: Threshold::RelativePathFraction(f),
            centroid: CentroidMode::Reference,
        }).len();
        // Cluster count is monotone in the threshold; the optional end
        // anchor adds at most one point, so allow +1 slack.
        let mut prev = usize::MAX;
        for f in [0.05, 0.15, 0.3, 0.6] {
            let n = count(f);
            prop_assert!(n <= prev.saturating_add(1), "fraction {} gave {} > {}+1", f, n, prev);
            prev = n;
        }
    }

    #[test]
    fn resample_endpoints_fixed(path in arb_path(40), n in 2usize..12) {
        let out = resample_to(&path, n, Metric::Euclidean);
        if path.len() >= 2 {
            prop_assert_eq!(out.len(), n);
            let eps = 1e-6;
            for d in 0..3 {
                prop_assert!((out[0].feat[d] - path[0].feat[d]).abs() < eps);
                prop_assert!(
                    (out[n - 1].feat[d] - path[path.len() - 1].feat[d]).abs() < eps
                );
            }
        }
    }
}

// ---------- transform invariance ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transform_cancels_user_placement(
        height in 1000.0..2200.0f64,
        x in -1500.0..1500.0f64,
        z in 1500.0..3500.0f64,
        yaw in -1.2..1.2f64,
    ) {
        let render = |persona: Persona| -> Vec<SkeletonFrame> {
            let mut perf = Performer::new(persona, 0);
            let frames = perf.render(&gesto::kinect::gestures::swipe_right());
            let mut tr = Transformer::new(TransformConfig::default());
            frames.iter().filter_map(|f| tr.transform_frame(f)).collect()
        };
        let reference = render(Persona::reference());
        let varied = render(
            Persona::reference()
                .with_height(height)
                .at(x, z)
                .rotated(yaw)
                .with_noise(NoiseModel::NONE),
        );
        prop_assert_eq!(reference.len(), varied.len());
        for (a, b) in reference.iter().zip(&varied) {
            let pa = a.joint(Joint::RightHand).unwrap();
            let pb = b.joint(Joint::RightHand).unwrap();
            prop_assert!(pa.dist(&pb) < 1e-6, "invariance violated: {:?} vs {:?}", pa, pb);
        }
    }
}

// ---------- candidate-row stepping vs the per-route oracle ----------

/// Detections as comparable `(gesture, ts, started_at, events)` keys,
/// sorted. The matched events are rendered value by value (`{:?}` of an
/// `f64` round-trips, so equal strings mean bit-equal values): a
/// detection whose event tuples changed after it fired no longer equals
/// the oracle's.
fn detection_keys(ds: &[gesto::cep::Detection]) -> Vec<(String, i64, i64, Vec<String>)> {
    let mut keys: Vec<_> = ds
        .iter()
        .map(|d| {
            let events = d.events.iter().map(|t| format!("{:?}", t.values()));
            (d.gesture.clone(), d.ts, d.started_at, events.collect())
        })
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random traces × random batch splits × the scalar/columnar dial:
    /// a server session detects exactly what the per-route oracle
    /// (private view operators, one-tuple scalar stepping) detects. The
    /// right hand mostly rests between the patterns' bands, so most rows
    /// are ones the block path skips, and timestamps jump far enough —
    /// backwards too — to blow `within` budgets inside those skipped
    /// spans only.
    #[test]
    fn server_detects_what_the_per_route_oracle_does(
        trace in proptest::collection::vec(
            (-300i64..400, -1.0..1.0f64, -1.0..1.0f64),
            30..150,
        ),
        splits in proptest::collection::vec(1usize..48, 1..12),
    ) {
        use gesto::cep::fixtures::PerRouteReference;
        use gesto::serve::{BackpressurePolicy, Server, ServerConfig, SessionId};
        use std::sync::{Arc, Mutex};

        const QUERIES: [&str; 3] = [
            r#"SELECT "sweep" MATCHING kinect(rHand_x - torso_x < -250)
               -> kinect(abs(rHand_x - torso_x) < 40) -> kinect(rHand_x - torso_x > 250)
               within 2 seconds select first consume all;"#,
            r#"SELECT "lift_t" MATCHING kinect_t(rHand_y > 150) -> kinect_t(rHand_y < -150)
               within 1 seconds select all consume none;"#,
            r#"SELECT "reach_t" MATCHING kinect_t(rHand_x > 200) -> kinect_t(rHand_x < -200)
               within 1 seconds select last consume all;"#,
        ];

        // An idle skeleton with the right hand moved about the torso:
        // `u^5` keeps it near rest most of the time.
        let rest = Performer::new(Persona::reference(), 0).render_idle(40).remove(0);
        let torso = rest.joint(Joint::Torso).unwrap();
        let mut ts = 0;
        let frames: Vec<SkeletonFrame> = trace
            .iter()
            .map(|&(dt, ux, uy)| {
                ts += dt;
                let mut f = rest.clone();
                f.ts = ts;
                let offset = gesto::kinect::Vec3::new(600.0 * ux.powi(5), 600.0 * uy.powi(5), -150.0);
                f.set_joint(Joint::RightHand, torso + offset);
                f
            })
            .collect();

        let expect = {
            let engine = gesto::cep::Engine::new(gesto::transform::standard_catalog());
            let mut oracles: Vec<_> = QUERIES
                .iter()
                .map(|q| PerRouteReference::new(&engine.compile(parse_query(q).unwrap()).unwrap()))
                .collect();
            let mut out = Vec::new();
            for t in gesto::kinect::frames_to_tuples(&frames, &gesto::kinect::kinect_schema()) {
                for oracle in &mut oracles {
                    oracle.push(gesto::kinect::KINECT_STREAM, &t, &mut out).unwrap();
                }
            }
            detection_keys(&out)
        };

        for threshold in [0, ServerConfig::new().columnar_min_batch, usize::MAX] {
            let mut config = ServerConfig::new()
                .with_shards(1)
                .with_backpressure(BackpressurePolicy::Block);
            config.columnar_min_batch = threshold;
            let server = Server::start(config);
            for q in QUERIES {
                server.deploy_text(q).unwrap();
            }
            // The sink keeps every detection — and with it the matched
            // event tuples — until the run is over; the keys are taken
            // only then.
            let hits = Arc::new(Mutex::new(Vec::new()));
            let sink = hits.clone();
            server.on_detection(Arc::new(move |_, d: &gesto::cep::Detection| {
                sink.lock().unwrap().push(d.clone());
            }));
            let mut rest = frames.as_slice();
            for n in splits.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at((*n).min(rest.len()));
                server.push_batch(SessionId(7), chunk.to_vec()).unwrap();
                rest = tail;
            }
            server.drain().unwrap();
            let got = detection_keys(&hits.lock().unwrap());
            server.shutdown();
            prop_assert_eq!(&got, &expect, "columnar_min_batch = {}", threshold);
        }
    }
}

/// A catalog of the standard `kinect` and `kinect_t` plus two views over
/// the raw stream: `kinect_d` (the right hand relative to the torso,
/// mirrored or scaled by 1.5) and `kinect_r` (the right hand relative to
/// the torso).
fn view_catalog(mirror: bool) -> std::sync::Arc<gesto::stream::Catalog> {
    use gesto::stream::{ops::MapOp, Catalog, Tuple, Value, ViewDef};
    use gesto::transform::{register_kinect_t, TransformConfig};
    use std::sync::Arc;

    let mut catalog = Catalog::new();
    catalog
        .register_stream(gesto::kinect::kinect_schema())
        .unwrap();
    register_kinect_t(&mut catalog, TransformConfig::default()).unwrap();
    let mut map_view = |name: &str, input: &str, f: fn(&mut [Value], &[Value]) -> Option<()>| {
        let schema = gesto::kinect::schema_named(name, "");
        let out = schema.clone();
        let factory: gesto::stream::ViewFactory = Arc::new(move || {
            let out = out.clone();
            Box::new(MapOp::new("map", out.clone(), move |t: &Tuple| {
                let mut values = t.values().to_vec();
                f(&mut values, t.values())?;
                Some(Tuple::new_unchecked(out.clone(), values))
            }))
        });
        let def = ViewDef {
            name: name.into(),
            input: input.into(),
            schema,
            factory,
        };
        catalog.register_view(def).unwrap();
    };
    let s = gesto::kinect::kinect_schema();
    let col = |n: &str| s.index_of(n).unwrap();
    let (x, y, tx, ty) = (
        col("rHand_x"),
        col("rHand_y"),
        col("torso_x"),
        col("torso_y"),
    );
    assert_eq!(
        (x, y, tx, ty),
        (26, 27, 8, 9),
        "the offsets the views below hard-code"
    );
    if mirror {
        map_view("kinect_d", gesto::kinect::KINECT_STREAM, |v, t| {
            v[26] = Value::Float(t[8].as_f64()? - t[26].as_f64()?);
            v[27] = Value::Float(t[27].as_f64()? - t[9].as_f64()?);
            Some(())
        });
    } else {
        map_view("kinect_d", gesto::kinect::KINECT_STREAM, |v, t| {
            v[26] = Value::Float(1.5 * (t[26].as_f64()? - t[8].as_f64()?));
            v[27] = Value::Float(1.5 * (t[27].as_f64()? - t[9].as_f64()?));
            Some(())
        });
    }
    map_view("kinect_r", gesto::kinect::KINECT_STREAM, |v, t| {
        v[26] = Value::Float(t[26].as_f64()? - t[8].as_f64()?);
        v[27] = Value::Float(t[27].as_f64()? - t[9].as_f64()?);
        Some(())
    });
    Arc::new(catalog)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random view catalogs × random plan subsets — single- and
    /// multi-route, with and without a route on the raw stream — ×
    /// sessions in 1-, 7- and 30-frame batches (scalar and block path):
    /// a server detects exactly what the per-route oracle detects, event
    /// values included. Covers plans mixing `kinect_t`'s deferred rows
    /// with tuple views over the raw stream, and multi-route plans
    /// stepping frame by frame.
    #[test]
    fn server_detects_what_the_per_route_oracle_does_over_random_view_catalogs(
        trace in proptest::collection::vec(
            (0i64..120, -1.0..1.0f64, -1.0..1.0f64),
            60..140,
        ),
        mirror in 0u8..2,
        subset in 1u32..64,
    ) {
        use gesto::cep::fixtures::PerRouteReference;
        use gesto::cep::{Engine, QueryPlan};
        use gesto::serve::{BackpressurePolicy, Server, ServerConfig, SessionId};
        use std::sync::{Arc, Mutex};

        const QUERIES: [&str; 6] = [
            r#"SELECT "t" MATCHING kinect_t(rHand_x > 200) -> kinect_t(rHand_x < -200)
               within 1 seconds select last consume all;"#,
            r#"SELECT "d" MATCHING kinect_d(rHand_y > 150) -> kinect_d(rHand_y < -150)
               within 1 seconds select all consume none;"#,
            r#"SELECT "r" MATCHING kinect_r(rHand_x < -250) -> kinect_r(rHand_x > 250)
               within 2 seconds select first consume all;"#,
            r#"SELECT "td" MATCHING kinect_t(rHand_x < 100) -> kinect_d(rHand_x < -200)
               within 2 seconds select first consume all;"#,
            r#"SELECT "raw_t" MATCHING kinect(rHand_x - torso_x < -250) -> kinect_t(rHand_x > 200)
               within 2 seconds select first consume all;"#,
            r#"SELECT "rd" MATCHING kinect_r(rHand_y > 150) -> kinect_d(rHand_y < -150)
               -> kinect_t(rHand_y > 150) within 2 seconds select all consume all;"#,
        ];

        let rest = Performer::new(Persona::reference(), 0).render_idle(40).remove(0);
        let torso = rest.joint(Joint::Torso).unwrap();
        let mut ts = 0;
        let frames: Vec<SkeletonFrame> = trace
            .iter()
            .map(|&(dt, ux, uy)| {
                ts += dt;
                let mut f = rest.clone();
                f.ts = ts;
                let offset = gesto::kinect::Vec3::new(600.0 * ux.powi(3), 600.0 * uy.powi(3), -150.0);
                f.set_joint(Joint::RightHand, torso + offset);
                f
            })
            .collect();

        let catalog = view_catalog(mirror == 1);
        let engine = Engine::new(catalog.clone());
        let plans: Vec<Arc<QueryPlan>> = QUERIES
            .iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, q)| engine.compile(parse_query(q).unwrap()).unwrap())
            .collect();
        let expect = {
            let mut oracles: Vec<_> = plans.iter().map(PerRouteReference::new).collect();
            let mut out = Vec::new();
            for t in gesto::kinect::frames_to_tuples(&frames, &gesto::kinect::kinect_schema()) {
                for oracle in &mut oracles {
                    oracle.push(gesto::kinect::KINECT_STREAM, &t, &mut out).unwrap();
                }
            }
            detection_keys(&out)
        };

        let server = Server::with_parts(
            ServerConfig::new().with_shards(1).with_backpressure(BackpressurePolicy::Block),
            catalog,
            engine.functions().clone(),
            Arc::new(gesto::db::GestureStore::new()),
        );
        for p in &plans {
            server.deploy_plan(p.clone()).unwrap();
        }
        let hits = Arc::new(Mutex::new(Vec::new()));
        let sink = hits.clone();
        server.on_detection(Arc::new(move |s: SessionId, d: &gesto::cep::Detection| {
            sink.lock().unwrap().push((s, d.clone()));
        }));
        let sizes = [1, 7, 30];
        for (s, size) in sizes.iter().enumerate() {
            for chunk in frames.chunks(*size) {
                server.push_batch(SessionId(s as u64), chunk.to_vec()).unwrap();
            }
        }
        server.drain().unwrap();
        let hits = hits.lock().unwrap().clone();
        server.shutdown();
        for (s, size) in sizes.iter().enumerate() {
            let own: Vec<_> = hits.iter().filter(|h| h.0 == SessionId(s as u64)).map(|h| h.1.clone()).collect();
            prop_assert_eq!(&detection_keys(&own), &expect, "{}-frame batches", size);
        }
    }
}
