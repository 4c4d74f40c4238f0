//! End-to-end shard supervision over real TCP: a poisoned batch panics
//! the shard worker mid-load, and the process must
//!
//! 1. keep serving throughout (the client's connection survives, pings
//!    answer, `/healthz` and `/readyz` answer 200 before, during and
//!    after the panic),
//! 2. recover on the thread that caught the panic: detections from
//!    before and after it are delivered by the same shard thread,
//! 3. reset **only** the poisoned session's state (counted once), and
//! 4. deliver the bystander sessions' detections **byte-for-byte
//!    identical** to an uninjected in-process run — including a gesture
//!    that straddles the panic, proving NFA state survives it — and the
//!    reset victim's next gesture identical to a fresh session's. The
//!    panic hits mid-`process`, while the worker's one set of batch
//!    buffers is lent to the victim and holds its half-processed batch:
//!    nothing of it may surface in any later detection, and the worker
//!    must be running on a full set again.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::net::{wire, NetClient, NetConfig, NetServer};
use gesto_serve::{failpoint, Server, ServerConfig, SessionId};

/// Bystander (client session id, performer seed) pairs; session 1 is
/// the victim that receives the poisoned batch.
const BYSTANDERS: [(u64, u64); 2] = [(2, 200), (3, 201)];
const VICTIM: u64 = 1;
/// A session that completes one gesture before the panic.
const EARLY: (u64, u64) = (4, 202);
const CHUNK: usize = 33;
/// Performer seed of the gesture the victim performs after its reset.
const VICTIM_SEED: u64 = 555;
/// Sentinel frame timestamp arming the panic-injection failpoint —
/// far outside anything a rendered performance produces.
const POISON_TS: i64 = 777_777_777_777;

fn swipe_frames(seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
    p.render(&gestures::swipe_right())
}

fn teach_swipe(server: &Server) {
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    server.teach("swipe_right", &samples).unwrap();
}

fn detection_bytes(d: wire::WireDetection) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode(&wire::Message::Detection(d), &mut buf);
    buf
}

/// One plaintext HTTP GET against the multiplexed edge port; returns
/// the numeric status code.
fn http_status(addr: std::net::SocketAddr, path: &str) -> u16 {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut resp = String::new();
    let _ = stream.read_to_string(&mut resp);
    resp.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable HTTP response: {resp:?}"))
}

fn assert_serving_and_ready(addr: std::net::SocketAddr, when: &str) {
    assert_eq!(http_status(addr, "/healthz"), 200, "healthz {when}");
    assert_eq!(http_status(addr, "/readyz"), 200, "readyz {when}");
}

#[test]
fn injected_panic_is_recovered_on_the_same_thread_and_spares_other_sessions() {
    // One shard: the victim and both bystanders share the worker that
    // will panic — the strongest version of the isolation claim.
    let server = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&server);
    // The thread that delivered each detection.
    let threads: Arc<Mutex<Vec<ThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = threads.clone();
    server.on_detection(Arc::new(move |_, _| {
        sink.lock().unwrap().push(std::thread::current().id())
    }));
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();
    let mut client = NetClient::connect(addr).unwrap();

    assert_serving_and_ready(addr, "before injection");

    // One whole gesture before the panic, delivered by the shard thread.
    for chunk in swipe_frames(EARLY.1).chunks(CHUNK) {
        client.send_batch(EARLY.0, chunk).unwrap();
    }
    let t0 = Instant::now();
    while threads.lock().unwrap().is_empty() {
        assert!(t0.elapsed() < Duration::from_secs(10), "no early detection");
        std::thread::sleep(Duration::from_millis(5));
    }
    let early = threads.lock().unwrap().len();

    // First half of each bystander gesture: their NFA state is mid-run
    // when the panic hits.
    let halves: Vec<(u64, Vec<SkeletonFrame>, Vec<SkeletonFrame>)> = BYSTANDERS
        .iter()
        .map(|&(sid, seed)| {
            let frames = swipe_frames(seed);
            let mid = frames.len() / 2;
            (sid, frames[..mid].to_vec(), frames[mid..].to_vec())
        })
        .collect();
    for (sid, first, _) in &halves {
        for chunk in first.chunks(CHUNK) {
            client.send_batch(*sid, chunk).unwrap();
        }
    }

    // Arm the failpoint and deliver the poison on the victim session.
    failpoint::arm_poison_ts(POISON_TS);
    let mut poison = swipe_frames(999);
    poison.truncate(4);
    poison[0].ts = POISON_TS;
    client.send_batch(VICTIM, &poison).unwrap();

    // The worker panics, quarantines the batch and carries on; the
    // process stays serving and ready the whole time.
    let t0 = Instant::now();
    while server.metrics().shards[0].panics == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "poison never hit");
        assert_serving_and_ready(addr, "while the panic is handled");
    }
    assert_eq!(failpoint::poison_trips(), 1, "failpoint fired exactly once");
    assert_serving_and_ready(addr, "after the panic");

    // Second half of each bystander gesture: completes runs started
    // before the panic, over the same still-alive connection.
    for (sid, _, second) in &halves {
        for chunk in second.chunks(CHUNK) {
            client.send_batch(*sid, chunk).unwrap();
        }
    }
    // The reset victim performs a whole gesture of its own.
    for chunk in swipe_frames(VICTIM_SEED).chunks(CHUNK) {
        client.send_batch(VICTIM, chunk).unwrap();
    }
    client.ping().unwrap();
    let detections = client.bye().unwrap();

    // Only the victim's session was reset, exactly once.
    let m = server.metrics();
    let s = &m.shards[0];
    assert_eq!(s.panics, 1, "one injected panic");
    assert_eq!(s.sessions_reset, 1, "only the poisoned session reset");
    assert_eq!(s.quarantined_frames, poison.len() as u64);
    assert!(
        s.batch_buffer_bytes > 0,
        "the worker runs on a full set of batch buffers after the panic"
    );

    // Detections from before and after the panic: one shard thread.
    let threads = threads.lock().unwrap().clone();
    assert!(threads.len() > early, "no detection after the panic");
    assert!(
        threads.iter().all(|t| *t == threads[0]),
        "detections came from more than one shard thread: {threads:?}"
    );

    assert!(
        detections.iter().any(|d| d.session == VICTIM),
        "the reset victim detects again"
    );
    assert!(
        detections.iter().any(|d| d.session != VICTIM),
        "bystanders saw no detections"
    );
    let mut got: Vec<Vec<u8>> = detections.into_iter().map(detection_bytes).collect();

    // Reference: identical teach, identical frames and chunking, no
    // injection, plain in-process push_batch.
    let reference = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&reference);
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = seen.clone();
    reference.on_detection(Arc::new(move |sid, det| {
        sink.lock()
            .unwrap()
            .push(detection_bytes(wire::WireDetection {
                session: sid.0,
                ts: det.ts,
                started_at: det.started_at,
                gesture: det.gesture.clone(),
                events: det.events.iter().map(|t| t.values().to_vec()).collect(),
            }));
    }));
    for chunk in swipe_frames(EARLY.1).chunks(CHUNK) {
        reference
            .push_batch(SessionId(EARLY.0), chunk.to_vec())
            .unwrap();
    }
    for (sid, first, second) in &halves {
        for chunk in first.chunks(CHUNK).chain(second.chunks(CHUNK)) {
            reference
                .push_batch(SessionId(*sid), chunk.to_vec())
                .unwrap();
        }
    }
    // The victim as a session that never saw the poison batch.
    for chunk in swipe_frames(VICTIM_SEED).chunks(CHUNK) {
        reference
            .push_batch(SessionId(VICTIM), chunk.to_vec())
            .unwrap();
    }
    reference.drain().unwrap();
    let mut expected = seen.lock().unwrap().clone();

    got.sort();
    expected.sort();
    assert_eq!(
        got, expected,
        "bystanders' and the reset victim's detections must be bit-identical to an uninjected run"
    );

    net.shutdown();
    reference.shutdown();
    server.shutdown();
}
