//! Concurrency stress test: frames pushed from many threads while a
//! control thread deploys/replaces/undeploys queries. Asserts no
//! deadlock (the test finishes) and exact `QueryStats` conservation for
//! a stable query — the invariant `gesto-serve` relies on when sharing
//! an engine's catalog and plans across shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gesto_cep::Engine;
use gesto_stream::{Catalog, SchemaBuilder, SchemaRef, Tuple, Value};

fn schema() -> SchemaRef {
    SchemaBuilder::new("kinect")
        .timestamp("ts")
        .float("x")
        .build()
        .unwrap()
}

fn tup(ts: i64, x: f64) -> Tuple {
    Tuple::new(schema(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
}

#[test]
fn concurrent_push_and_deploy_churn_keep_stats_consistent() {
    let mut catalog = Catalog::new();
    catalog.register_stream(schema()).unwrap();
    let engine = Arc::new(Engine::new(Arc::new(catalog)));

    // The stable query: a single-event pattern, so every matching tuple
    // yields exactly one detection and totals are exact even under
    // interleaving.
    engine
        .deploy_text(r#"SELECT "stable" MATCHING kinect(x > 10);"#)
        .unwrap();

    const PUSHERS: usize = 4;
    const TUPLES_PER_THREAD: usize = 2_000;
    let matching_per_thread = TUPLES_PER_THREAD / 2; // every other tuple matches

    let returned = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for t in 0..PUSHERS {
        let engine = engine.clone();
        let returned = returned.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..TUPLES_PER_THREAD {
                let x = if i % 2 == 0 { 100.0 } else { 0.0 };
                let ts = (t * TUPLES_PER_THREAD + i) as i64;
                let ds = engine.push("kinect", &tup(ts, x)).unwrap();
                let stable = ds.iter().filter(|d| d.gesture == "stable").count();
                returned.fetch_add(stable as u64, Ordering::Relaxed);
            }
        }));
    }

    // Churn thread: deploy/replace/undeploy a second query the whole
    // time. It must never deadlock against the pushers and must never
    // perturb the stable query's totals.
    let churn_engine = engine.clone();
    let churn = std::thread::spawn(move || {
        for round in 0..200 {
            churn_engine
                .replace(
                    gesto_cep::parse_query(&format!(
                        r#"SELECT "churn" MATCHING kinect(x > {});"#,
                        round % 7
                    ))
                    .unwrap(),
                )
                .unwrap();
            let _ = churn_engine.stats_all();
            if round % 3 == 0 {
                let _ = churn_engine.undeploy("churn");
            }
            std::thread::yield_now();
        }
        let _ = churn_engine.undeploy("churn");
    });

    for t in threads {
        t.join().expect("pusher thread panicked");
    }
    churn.join().expect("churn thread panicked");

    let expected = (PUSHERS * matching_per_thread) as u64;
    assert_eq!(
        returned.load(Ordering::Relaxed),
        expected,
        "every matching tuple returned exactly one detection"
    );
    let stats = engine.stats("stable").unwrap();
    assert_eq!(
        stats.detections, expected,
        "engine-side counter agrees with caller-side total"
    );
    assert_eq!(engine.deployed(), vec!["stable"]);
}
