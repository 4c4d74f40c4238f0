//! End-to-end shard supervision over real TCP: a poisoned batch panics
//! the shard worker mid-load, and the process must
//!
//! 1. keep serving throughout (the client's connection survives, pings
//!    answer, `/healthz` stays 200),
//! 2. surface the respawn window through `GET /readyz` (503 while the
//!    worker generation is being replaced, 200 again after),
//! 3. reset **only** the poisoned session's state (counted once), and
//! 4. deliver the bystander sessions' detections **byte-for-byte
//!    identical** to an uninjected in-process run — including a gesture
//!    that straddles the panic, proving NFA state survives the respawn —
//!    and the reset victim's next gesture identical to a fresh
//!    session's. The panic hits mid-`process`, while the worker's one
//!    set of batch buffers is lent to the victim and holds its
//!    half-processed batch: nothing of it may surface in any later
//!    detection, and the worker must be running on a full set again.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::net::{wire, NetClient, NetConfig, NetServer};
use gesto_serve::{failpoint, Server, ServerConfig, SessionId};

/// Bystander (client session id, performer seed) pairs; session 1 is
/// the victim that receives the poisoned batch.
const BYSTANDERS: [(u64, u64); 2] = [(2, 200), (3, 201)];
const VICTIM: u64 = 1;
const CHUNK: usize = 33;
/// Performer seed of the gesture the victim performs after its reset.
const VICTIM_SEED: u64 = 555;
/// Sentinel frame timestamp arming the panic-injection failpoint —
/// far outside anything a rendered performance produces.
const POISON_TS: i64 = 777_777_777_777;
const RESPAWN_DELAY_MS: u64 = 300;

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

#[test]
fn injected_panic_respawns_worker_and_spares_other_sessions() {
    // One shard: the victim and both bystanders share the worker that
    // will panic — the strongest version of the isolation claim.
    let server = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();
    let mut client = NetClient::connect(addr).unwrap();

    assert_eq!(http_status(addr, "/readyz"), 200, "ready before injection");

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
    failpoint::set_respawn_delay_ms(RESPAWN_DELAY_MS);
    failpoint::arm_poison_ts(POISON_TS);
    let mut poison = swipe_frames(999);
    poison.truncate(4);
    poison[0].ts = POISON_TS;
    client.send_batch(VICTIM, &poison).unwrap();

    // The worker panics, quarantines the batch and respawns after the
    // injected delay. While the replacement is being brought up the
    // process must stay alive and serving — /healthz 200 — but report
    // not-ready on /readyz.
    let t0 = Instant::now();
    let mut saw_not_ready = false;
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never respawned (saw_not_ready={saw_not_ready})"
        );
        let ready = http_status(addr, "/readyz");
        if ready == 503 {
            saw_not_ready = true;
            assert_eq!(
                http_status(addr, "/healthz"),
                200,
                "process must serve (healthz) during the respawn window"
            );
        }
        let m = server.metrics();
        if ready == 200 && m.shards[0].restarts == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        saw_not_ready,
        "readyz never reported 503 during the {RESPAWN_DELAY_MS}ms respawn window"
    );
    assert_eq!(failpoint::poison_trips(), 1, "failpoint fired exactly once");
    failpoint::set_respawn_delay_ms(0);

    // Second half of each bystander gesture: completes runs started
    // before the panic, on the respawned worker, over the same
    // still-alive connection.
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
    assert_eq!(s.restarts, 1, "one worker respawn");
    assert_eq!(s.sessions_reset, 1, "only the poisoned session reset");
    assert_eq!(s.quarantined_frames, poison.len() as u64);
    assert!(
        s.batch_buffer_bytes > 0,
        "the respawned worker runs on a full set of batch buffers"
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
