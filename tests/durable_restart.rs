//! Restart-equivalence e2e: a durable server is taught several
//! gestures, killed, and restarted **from disk only** — no re-teaching,
//! no re-deploying. The restarted server must detect the same
//! performances bit-identically to the original process: same
//! gestures, same timestamps, same matched event tuples (floats
//! compared through their round-trip representation, which is exact
//! for `f64`) — and so must an in-memory server taught the same way:
//! the journal never changes what the engine computes.
//!
//! The tests of this file take turns on [`SERIAL`], so each is alone in
//! its process while it runs. The first therefore also asserts the
//! compile-once invariant on the process-wide [`compiled_plan_count`],
//! which parallel tests would perturb: five deployed queries served to
//! three sessions on two shards compile five plans, and recovery
//! compiles each once more.
//!
//! A durable server journals each query as text and parses it again at
//! recovery; the last two tests pin that the text reads back as the
//! same query, or the deploy is refused.

use std::path::PathBuf;
use std::sync::Arc;

use gesto::cep::{compiled_plan_count, Expr, Pattern, Query};
use gesto::kinect::{gestures, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto::serve::{ServeError, Server, ServerConfig, SessionId};
use parking_lot::Mutex;

/// Held for the whole of each test (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesto-restart-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn perform(spec: &gestures::GestureSpec, seed: u64) -> Vec<SkeletonFrame> {
    let persona = Persona::reference()
        .with_noise(NoiseModel::realistic())
        .with_seed(seed);
    Performer::new(persona, 0).render(spec)
}

/// Canonical, bit-exact rendering of one detection (Rust's float
/// formatting is shortest-round-trip, so equal strings ⇔ equal bits).
fn sink_into(server: &Server, out: &Arc<Mutex<Vec<String>>>) {
    let sink = out.clone();
    server.on_detection(Arc::new(move |sid, det| {
        let events: Vec<_> = det.events.iter().map(|t| t.values().to_vec()).collect();
        sink.lock().push(format!(
            "{} {} {} {} {events:?}",
            sid.0, det.gesture, det.ts, det.started_at
        ));
    }));
}

fn run_performances(server: &Server) -> Vec<String> {
    let detections = Arc::new(Mutex::new(Vec::new()));
    sink_into(server, &detections);
    // Three sessions, each performing every taught gesture with its own
    // (fixed) noise seed; batches of 25 frames to cross shard batch
    // boundaries the same way in both runs.
    let specs = [
        gestures::swipe_right(),
        gestures::swipe_left(),
        gestures::push(),
        gestures::wave(),
    ];
    for session in 0..3u64 {
        for (g, spec) in specs.iter().enumerate() {
            let frames = perform(spec, 1000 + session * 10 + g as u64);
            for chunk in frames.chunks(25) {
                server
                    .push_batch(SessionId(session), chunk.to_vec())
                    .unwrap();
            }
        }
    }
    server.drain().unwrap();
    let mut got = detections.lock().clone();
    got.sort();
    got
}

/// Teaches four gestures and deploys one hand-written query.
fn teach_all(server: &Server) {
    let teachings = [
        ("swipe_right", gestures::swipe_right()),
        ("swipe_left", gestures::swipe_left()),
        ("push", gestures::push()),
        ("wave", gestures::wave()),
    ];
    for (i, (name, spec)) in teachings.iter().enumerate() {
        let samples: Vec<_> = (0..3)
            .map(|s| perform(spec, (i as u64) * 100 + s))
            .collect();
        server.teach(name, &samples).unwrap();
    }
    server
        .deploy_text(r#"SELECT "ceiling" MATCHING kinect(head_y > 100000.0);"#)
        .unwrap();
}

#[test]
fn restarted_server_detects_bit_identically() {
    let _alone = SERIAL.lock();
    let dir = temp_dir("equiv");
    let config = || ServerConfig::new().with_shards(2).with_durability(&dir);

    // Original process: teach four gestures (journaled as PutRecord +
    // Deploy ops) plus a hand-written query, checkpoint those nine ops,
    // then redeploy the query so its version moves to 2 in the journal
    // tail — recovery exercises checkpoint + journal-tail replay, not
    // just one of them — then detect.
    let compiled_before = compiled_plan_count();
    let server = Server::try_start(config()).unwrap();
    teach_all(&server);
    assert_eq!(
        server.checkpoint().unwrap(),
        Some(9),
        "nine ops checkpointed"
    );
    server
        .deploy_text(r#"SELECT "ceiling" MATCHING kinect(head_y > 100000.0);"#)
        .unwrap();
    assert_eq!(server.plan_version("ceiling"), Some(2));
    let first = run_performances(&server);
    assert!(
        first.len() >= 12,
        "original server detected too little to make equivalence meaningful: {first:?}"
    );
    assert_eq!(
        server.metrics().plans_compiled,
        6,
        "server-side compile counter"
    );
    assert_eq!(
        compiled_plan_count() - compiled_before,
        6,
        "five queries and one redeploy on three sessions and two shards: six compiled plans, \
         process-wide"
    );

    // The same teaching on an in-memory server detects identically.
    let memory = Server::start(ServerConfig::new().with_shards(2));
    teach_all(&memory);
    assert_eq!(
        run_performances(&memory),
        first,
        "the journal must not change what the engine computes"
    );
    memory.shutdown();
    let deployed_before = {
        let mut d = server.deployed_versions();
        d.sort();
        d
    };
    server.shutdown(); // the "crash" (drain + exit; state is on disk)

    // Restarted process: *only* the durability directory survives.
    let compiled_before = compiled_plan_count();
    let server = Server::try_start(config()).unwrap();
    assert_eq!(
        compiled_plan_count() - compiled_before,
        5,
        "recovery compiles each deployed plan once"
    );
    assert!(
        server
            .registry()
            .render()
            .contains("\ngesto_recovery_replayed_ops_total 1\n"),
        "recovery loads the checkpoint and replays the one-op tail past it"
    );
    let deployed_after = {
        let mut d = server.deployed_versions();
        d.sort();
        d
    };
    assert_eq!(deployed_before, deployed_after);
    let second = run_performances(&server);
    assert_eq!(
        first, second,
        "restarted server must detect bit-identically from disk state"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig::new().with_durability(dir)
}

/// Gestures `server` detects on one performance of a swipe.
fn detected_names(server: &Server) -> Vec<String> {
    let names = Arc::new(Mutex::new(Vec::new()));
    let sink = names.clone();
    server.on_detection(Arc::new(move |_, det| {
        sink.lock().push(det.gesture.to_string())
    }));
    let frames = perform(&gestures::swipe_right(), 7);
    server.push_batch(SessionId(0), frames).unwrap();
    server.drain().unwrap();
    let got = names.lock().clone();
    got
}

#[test]
fn a_quoted_non_ascii_name_survives_restart() {
    let _alone = SERIAL.lock();
    let dir = temp_dir("quoted");
    let name = "a\"b\\c wavé";
    let server = Server::try_start(durable_config(&dir)).unwrap();
    server
        .deploy_text(r#"SELECT "a\"b\\c wavé" MATCHING kinect(head_y > -100000.0);"#)
        .unwrap();
    let deployed = server.deployed_versions();
    assert_eq!(deployed, vec![(name.to_owned(), 1)]);
    server.shutdown();

    let server = Server::try_start(durable_config(&dir)).expect("restart from disk");
    assert_eq!(server.deployed_versions(), deployed);
    assert!(
        detected_names(&server).iter().any(|g| g == name),
        "the restarted server must fire under the deployed name"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_deploy_refuses_query_text_that_does_not_read_back() {
    let _alone = SERIAL.lock();
    let dir = temp_dir("readback");
    let event = |rhs: Expr| Pattern::event("kinect", Expr::lt(Expr::col("rHand_x"), rhs));
    let unreadable = [
        ("infinite", Expr::lit(f64::INFINITY)),
        ("nan", Expr::lit(f64::NAN)),
        ("int", Expr::lit(1i64)),
    ];

    // Without durability the query text is never read: all deploy.
    let memory = Server::start(ServerConfig::new());
    for (name, rhs) in unreadable.clone() {
        memory.deploy(Query::new(name, event(rhs))).unwrap();
    }
    memory.shutdown();

    let server = Server::try_start(durable_config(&dir)).unwrap();
    for (name, rhs) in unreadable {
        match server.deploy(Query::new(name, event(rhs))) {
            Err(ServeError::Durability(m)) => assert!(m.contains(&format!("'{name}'")), "{m}"),
            other => panic!("{name}: expected a durability error, got {other:?}"),
        }
    }
    assert!(
        server.deployed().is_empty(),
        "a refused query is not deployed"
    );
    server
        .deploy(Query::new("finite", event(Expr::lit(1.0e6))))
        .unwrap();
    server.shutdown();

    let server = Server::try_start(durable_config(&dir)).expect("nothing unreadable was journaled");
    assert_eq!(server.deployed_versions(), vec![("finite".to_owned(), 1)]);
    assert!(detected_names(&server).iter().any(|g| g == "finite"));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
