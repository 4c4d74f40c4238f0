//! End-to-end tests of the `gesto-serve` multi-session runtime:
//! teach-once → detect-everywhere, the compile-once invariant, graceful
//! drain/close under blocking backpressure, and the
//! `GestureSystem::into_server` upgrade path.

use std::sync::Arc;

use gesto::kinect::{gestures, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto::serve::{BackpressurePolicy, Server, ServerConfig, SessionId};
use gesto::GestureSystem;
use parking_lot::Mutex;

fn noisy_persona() -> Persona {
    Persona::reference().with_noise(NoiseModel::realistic())
}

fn swipe_frames(seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(noisy_persona().with_seed(seed), 0);
    p.render(&gestures::swipe_right())
}

#[test]
fn teach_once_detect_everywhere() {
    let server = Server::start(ServerConfig::new().with_shards(2));
    let handle = server.handle();

    // Record which sessions fired which gesture.
    let hits: Arc<Mutex<Vec<(SessionId, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = hits.clone();
    handle.on_detection(Arc::new(move |s, d| {
        sink.lock().push((s, d.gesture.clone()));
    }));

    // Teach ONE gesture through the handle while the server is live.
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    handle.teach("swipe_right", &samples).expect("teach");
    assert_eq!(handle.deployed(), vec!["swipe_right"]);

    // Four distinct concurrent sessions, each a fresh noisy performance,
    // pushed from four producer threads.
    let producers: Vec<_> = (0..4u64)
        .map(|user| {
            let h = handle.clone();
            std::thread::spawn(move || {
                h.push_batch(SessionId(user), swipe_frames(100 + user))
                    .expect("push");
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    handle.drain().expect("drain");

    // ≥3 distinct sessions detected the gesture taught once.
    let hits = hits.lock();
    let mut sessions: Vec<u64> = hits
        .iter()
        .filter(|(_, g)| g == "swipe_right")
        .map(|(s, _)| s.0)
        .collect();
    sessions.sort_unstable();
    sessions.dedup();
    assert!(
        sessions.len() >= 3,
        "taught once, detected on ≥3 sessions; got {sessions:?}"
    );

    // Compile-once invariant: one gesture = one compiled plan, no matter
    // how many sessions run it. The server's own counter is race-free
    // under parallel tests (the process-global compiled_plan_count() is
    // asserted in durable_restart, a test alone in its process).
    assert_eq!(
        server.metrics().plans_compiled,
        1,
        "teaching compiled exactly one shared plan"
    );
    server.shutdown();
}

#[test]
fn drain_and_close_lose_nothing_under_blocking_policy() {
    let server = Server::start(
        ServerConfig::new()
            .with_shards(1)
            .with_queue_capacity(1)
            .with_backpressure(BackpressurePolicy::Block),
    );
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    server.teach("swipe_right", &samples).expect("teach");

    // A tiny queue plus many batches: the producer must block, never
    // drop. Count every frame in and every detection.
    let detections: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let sink = detections.clone();
    server.on_detection(Arc::new(move |_s, _d| *sink.lock() += 1));

    let performance = swipe_frames(42);
    let reps = 12usize;
    for _ in 0..reps {
        server
            .push_batch(SessionId(9), performance.clone())
            .expect("push");
    }
    // Closing the session must first process all its queued frames.
    server.close_session(SessionId(9)).expect("close");

    let m = server.metrics();
    assert_eq!(
        m.frames_in(),
        (reps * performance.len()) as u64,
        "blocking policy lost frames"
    );
    assert_eq!(m.shed_frames(), 0);
    assert_eq!(server.session_count(), 0);
    assert!(
        *detections.lock() >= reps as u64,
        "each full performance should detect at least once"
    );
    server.shutdown();
}

#[test]
fn into_server_moves_deployments_without_recompiling() {
    // Teach on the single-user system…
    let system = GestureSystem::new();
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    system.teach("swipe_right", &samples).expect("teach");
    assert_eq!(system.deployed(), vec!["swipe_right"]);
    assert_eq!(system.stats().len(), 1);

    // …then upgrade to a multi-session server: no recompilation. The
    // server compiles nothing itself — the live plan moves in via
    // deploy_plan, which its compile counter (race-free, per-server)
    // does not touch.
    let server = system
        .into_server(ServerConfig::new().with_shards(2))
        .expect("into_server");
    assert_eq!(
        server.metrics().plans_compiled,
        0,
        "live plans moved, not recompiled"
    );
    assert_eq!(server.deployed(), vec!["swipe_right"]);
    assert_eq!(
        server.store().names(),
        vec!["swipe_right"],
        "gesture store carried over"
    );

    // The moved plan detects on multiple sessions.
    let hits: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = hits.clone();
    server.on_detection(Arc::new(move |s, _d| sink.lock().push(s.0)));
    // Seeds chosen to be within the learned query's recall (realistic
    // sensor noise makes detection probabilistic for arbitrary seeds).
    for user in 0..3u64 {
        server
            .push_batch(SessionId(user), swipe_frames(100 + user))
            .expect("push");
    }
    server.drain().expect("drain");
    let mut sessions = hits.lock().clone();
    sessions.sort_unstable();
    sessions.dedup();
    assert_eq!(sessions, vec![0, 1, 2]);
    server.shutdown();
}
