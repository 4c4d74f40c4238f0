//! End-to-end tests of the TCP edge: real sockets, a real client
//! *process*, multiple sessions, and protocol-level backpressure.
//!
//! The flagship test starts a [`NetServer`], spawns this very test
//! binary as a child process acting as the network client (the
//! `child_client_process` "test" below is its entry point, inert
//! unless the env var is set), and asserts the detections streamed
//! back over TCP are **byte-for-byte identical** to what the same
//! frames produce through the in-process `push_batch` path.

use std::process::Command;
use std::sync::{Arc, Mutex};

use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::net::{wire, NetClient, NetConfig, NetServer};
use gesto_serve::{BackpressurePolicy, Server, ServerConfig, SessionId};

const CHILD_ADDR_VAR: &str = "GESTO_NET_E2E_ADDR";
/// (client session id, performer seed) pairs both processes agree on.
const SESSIONS: [(u64, u64); 2] = [(11, 100), (22, 101)];
/// Batch size both the wire path and the reference path use, odd on
/// purpose to exercise validity-bitmap tail bytes.
const CHUNK: usize = 33;

fn swipe_frames(seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
    p.render(&gestures::swipe_right())
}

fn teach_swipe(server: &Server) {
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    server.teach("swipe_right", &samples).unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Canonical encoding of a detection, used on both sides of the
/// bit-identical comparison.
fn detection_bytes(d: wire::WireDetection) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode(&wire::Message::Detection(d), &mut buf);
    buf
}

/// Child-process entry point: a no-op under the normal test run; the
/// real client when spawned by `two_sessions_from_real_client_process`.
#[test]
fn child_client_process() {
    let Ok(addr) = std::env::var(CHILD_ADDR_VAR) else {
        return;
    };
    let mut client = NetClient::connect(addr).unwrap();
    for (sid, _) in SESSIONS {
        client.open_session(sid).unwrap();
    }
    for (sid, seed) in SESSIONS {
        let frames = swipe_frames(seed);
        for chunk in frames.chunks(CHUNK) {
            client.send_batch(sid, chunk).unwrap();
        }
    }
    client.ping().unwrap();
    for d in client.bye().unwrap() {
        println!("DET {}", hex(&detection_bytes(d)));
    }
}

#[test]
fn two_sessions_from_real_client_process_bit_identical() {
    let server = Server::start(ServerConfig::new().with_shards(2));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();

    // The network side: this test binary re-run as a separate client
    // process, speaking the wire protocol over real TCP.
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["child_client_process", "--exact", "--nocapture"])
        .env(CHILD_ADDR_VAR, net.local_addr().to_string())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "client process failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // The marker may share a line with libtest's unterminated
    // "test child_client_process ... " progress prefix, so search
    // within the line rather than anchoring at its start.
    let mut got: Vec<Vec<u8>> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .filter_map(|l| l.find("DET ").map(|i| &l[i + 4..]))
        .map(unhex)
        .collect();
    assert!(!got.is_empty(), "client saw no detections");

    // The reference side: identical teach, identical frames, identical
    // batching — but through the in-process push_batch path.
    let reference = Server::start(ServerConfig::new().with_shards(2));
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
    for (sid, seed) in SESSIONS {
        for chunk in swipe_frames(seed).chunks(CHUNK) {
            reference
                .push_batch(SessionId(sid), chunk.to_vec())
                .unwrap();
        }
    }
    reference.drain().unwrap();
    let mut expected = seen.lock().unwrap().clone();

    got.sort();
    expected.sort();
    assert_eq!(
        got, expected,
        "wire detections must be bit-identical to in-process push_batch"
    );

    // The edge observed one connection and both sessions, lost no
    // frame, delivered every detection it sent and measured e2e latency.
    let m = net.metrics();
    let frames: usize = SESSIONS
        .iter()
        .map(|&(_, seed)| swipe_frames(seed).len())
        .sum();
    assert_eq!(m.connections_accepted(), 1);
    assert_eq!(m.sessions_opened(), 2);
    assert_eq!(m.frames_received(), frames as u64, "edge lost frames");
    assert_eq!(m.detections_sent() as usize, got.len());
    assert!(m.latency().count() > 0, "latency histogram was fed");
    assert!(m.bytes_in() > 0 && m.bytes_out() > 0);

    net.shutdown();
    reference.shutdown();
    server.shutdown();
}

#[test]
fn credit_backpressure_stalls_producer_when_shard_is_full() {
    // A deliberately slow consumer: one shard, a one-batch queue, the
    // blocking policy. The edge must translate the full queue into
    // protocol backpressure (parked batches, withheld credit) rather
    // than stalling its event loop or dropping frames.
    let server = Server::start(
        ServerConfig::new()
            .with_shards(1)
            .with_queue_capacity(1)
            .with_backpressure(BackpressurePolicy::Block),
    );
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new().with_initial_credits(64)).unwrap();

    let mut client = NetClient::connect(net.local_addr()).unwrap();
    let frames = swipe_frames(7);
    let batch: Vec<SkeletonFrame> = frames.iter().cycle().take(64).cloned().collect();
    let mut sent = 0u64;
    for _ in 0..50 {
        client.send_batch(1, &batch).unwrap();
        sent += batch.len() as u64;
    }
    assert!(
        client.credit_waits() > 0,
        "the producer never had to wait for credit — backpressure did not reach it"
    );

    // Closing the session drains it; nothing may have been lost.
    client.close_session(1).unwrap();
    assert_eq!(
        server.metrics().frames_in(),
        sent,
        "every frame accepted on the wire must reach the shard"
    );
    let _ = client.bye().unwrap();
    net.shutdown();
    server.shutdown();
}

#[test]
fn a_batch_refused_by_the_memory_budget_gets_queue_full_and_its_credit_back() {
    // A one-byte shard memory budget refuses every batch. Each refusal
    // must reach the client as one non-fatal `Error(QueueFull)`, the
    // refused frames' credit must still come back (the client sends
    // five windows' worth), and the connection must stay up.
    let server = Server::start(
        ServerConfig::new()
            .with_shards(1)
            .with_shard_memory_budget(1),
    );
    let net = NetServer::start(server.handle(), NetConfig::new().with_initial_credits(64)).unwrap();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    let batch: Vec<SkeletonFrame> = swipe_frames(3).into_iter().cycle().take(32).collect();
    let batches = 10;
    for _ in 0..batches {
        client.send_batch(1, &batch).unwrap();
    }
    client.ping().unwrap();
    assert_eq!(client.rejected_batches(), batches);
    assert_eq!(net.metrics().batches_rejected(), batches);
    assert_eq!(server.metrics().mem_rejected_batches(), batches);
    assert_eq!(server.metrics().frames_in(), 0);

    let _ = client.bye().unwrap();
    net.shutdown();
    server.shutdown();
}

#[test]
fn protocol_basics_ping_idempotent_close_and_concurrent_clients() {
    let server = Server::start(ServerConfig::new().with_shards(2));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();

    let mut a = NetClient::connect(addr).unwrap();
    let mut b = NetClient::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // Closing a session that was never opened acks immediately (§3).
    a.close_session(999).unwrap();

    // Both clients may use the *same* client session id: sessions are
    // scoped per connection, so their streams must not interleave.
    let frames = swipe_frames(42);
    for chunk in frames.chunks(CHUNK) {
        a.send_batch(5, chunk).unwrap();
        b.send_batch(5, chunk).unwrap();
    }
    let da = a.bye().unwrap();
    let db = b.bye().unwrap();
    assert!(!da.is_empty() && !db.is_empty());
    assert!(da.iter().chain(&db).all(|d| d.session == 5));
    // Closing never-opened session 999 must NOT have opened it.
    assert_eq!(net.metrics().sessions_opened(), 2, "5 on a, 5 on b");

    net.shutdown();
    server.shutdown();
}

#[test]
fn concurrent_clients_get_only_their_own_detections() {
    // Four clients on four threads at once, all served by the one I/O
    // loop: each must be served, on an engine session of its own, and
    // get exactly its own detections back.
    let server = Server::start(ServerConfig::new().with_shards(2));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();

    let workers: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let frames = swipe_frames(500 + i);
                for chunk in frames.chunks(CHUNK) {
                    client.send_batch(i, chunk).unwrap();
                }
                client.bye().unwrap()
            })
        })
        .collect();
    for (i, w) in workers.into_iter().enumerate() {
        let detections = w.join().unwrap();
        assert!(!detections.is_empty(), "client {i} saw no detections");
        assert!(
            detections.iter().all(|d| d.session == i as u64),
            "client {i} received another client's detections"
        );
    }
    assert_eq!(net.metrics().sessions_opened(), 4);

    net.shutdown();
    server.shutdown();
}

#[test]
fn a_bind_past_the_session_cap_is_refused_and_bound_sessions_stream_on() {
    // One connection may bind 1 024 sessions: the 1 025th bind gets the
    // non-fatal `Overloaded` frame, and the connection and the sessions
    // bound before it keep streaming.
    let server = Server::start(ServerConfig::new().with_shards(2));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    for sid in 0..1_025 {
        client.open_session(sid).unwrap();
    }
    client.ping().unwrap();
    assert_eq!(client.admission_rejections(), 1, "only the last bind");
    assert_eq!(net.metrics().sessions_opened(), 1_024);
    assert_eq!(net.metrics().sessions_rejected(), 1);

    let frames = swipe_frames(9);
    for sid in [0, 1_023] {
        for chunk in frames.chunks(CHUNK) {
            client.send_batch(sid, chunk).unwrap();
        }
    }
    let detections = client.bye().unwrap();
    for sid in [0, 1_023] {
        assert!(
            detections.iter().any(|d| d.session == sid),
            "bound session {sid} detected nothing"
        );
    }
    assert_eq!(net.metrics().frames_received(), 2 * frames.len() as u64);

    net.shutdown();
    server.shutdown();
}

#[test]
fn control_plane_over_the_wire_and_gated_by_default() {
    let server = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&server);

    // An operator edge, explicitly opted into control (§8).
    let net = NetServer::start(server.handle(), NetConfig::new().with_allow_control(true)).unwrap();
    let mut op = NetClient::connect(net.local_addr()).unwrap();
    op.deploy_text(r#"SELECT "ceiling" MATCHING kinect(head_y > 100000.0);"#)
        .unwrap();
    assert_eq!(server.plan_version("ceiling"), Some(1));
    // Redeploying the same name over the wire bumps the version.
    op.deploy_text(r#"SELECT "ceiling" MATCHING kinect(head_y > 200000.0);"#)
        .unwrap();
    assert_eq!(server.plan_version("ceiling"), Some(2));
    // Engine-side failures come back in the ControlAck, not as a
    // protocol error: the connection stays usable.
    let err = op.deploy_text("this is not a query").unwrap_err();
    assert!(err.to_string().contains("control rejected"), "{err}");
    op.undeploy("ceiling").unwrap();
    assert!(!server.deployed().contains(&"ceiling".to_owned()));
    // The data path still works on the same connection.
    for chunk in swipe_frames(9).chunks(CHUNK) {
        op.send_batch(1, chunk).unwrap();
    }
    assert!(!op.bye().unwrap().is_empty());
    net.shutdown();

    // The default edge is data-only: control frames are refused with
    // ErrorCode::ControlDisabled but the connection survives.
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let mut data = NetClient::connect(net.local_addr()).unwrap();
    let deployed = server.deployed();
    let err = data
        .deploy_text(r#"SELECT "evil" MATCHING kinect(head_y > 1.0);"#)
        .unwrap_err();
    assert!(
        err.to_string().contains("control plane disabled"),
        "unexpected refusal: {err}"
    );
    assert_eq!(server.deployed(), deployed);
    data.ping().unwrap();
    for chunk in swipe_frames(10).chunks(CHUNK) {
        data.send_batch(2, chunk).unwrap();
    }
    assert!(!data.bye().unwrap().is_empty());
    assert!(net.metrics().protocol_errors() > 0);

    net.shutdown();
    server.shutdown();
}

#[test]
fn deploy_of_too_deep_query_text_is_refused_and_the_edge_serves_on() {
    // A 30 000-term `x+x+…` predicate fits one Deploy (60 KB of text);
    // compiled, it would overflow the I/O thread's stack and abort the
    // server. The parser's nesting bound turns it into a ControlAck
    // error.
    let server = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new().with_allow_control(true)).unwrap();
    let mut op = NetClient::connect(net.local_addr()).unwrap();
    let chain = format!("x{}", "+x".repeat(29_999));
    let text = format!(r#"SELECT "deep" MATCHING kinect({chain} > 0);"#);
    assert!(text.len() <= usize::from(u16::MAX));
    let err = op.deploy_text(&text).unwrap_err();
    assert!(err.to_string().contains("nests deeper"), "{err}");
    assert_eq!(server.deployed(), vec!["swipe_right"]);
    op.ping().unwrap();
    for chunk in swipe_frames(9).chunks(CHUNK) {
        op.send_batch(1, chunk).unwrap();
    }
    assert!(op
        .bye()
        .unwrap()
        .iter()
        .any(|d| d.session == 1 && d.gesture == "swipe_right"));
    net.shutdown();
    server.shutdown();
}

#[test]
fn client_reconnects_with_backoff_after_edge_restart() {
    let server = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    client.open_session(3).unwrap();
    for chunk in swipe_frames(60).chunks(CHUNK) {
        client.send_batch(3, chunk).unwrap();
    }
    client.ping().unwrap();
    assert_eq!(client.reconnects(), 0);

    // Kill the edge (the engine stays up) and restart it on the same
    // port. The listener may linger briefly; retry the bind.
    net.shutdown();
    let net = (0..100)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            NetServer::start(
                server.handle(),
                NetConfig::new().with_addr(addr.to_string()),
            )
            .ok()
        })
        .expect("could not rebind the edge on the old address");

    // The next operation trips over the dead socket, redials within
    // the retry budget, re-opens session 3, and completes. A fresh
    // performance sent after the reconnect must still detect.
    for chunk in swipe_frames(61).chunks(CHUNK) {
        client.send_batch(3, chunk).unwrap();
    }
    assert!(
        client.reconnects() >= 1,
        "client never redialed across the restart"
    );
    assert!(
        gesto_serve::net::client_reconnects_total() >= 1,
        "process-wide reconnect counter did not move"
    );
    let detections = client.bye().unwrap();
    assert!(
        !detections.is_empty(),
        "post-reconnect performance produced no detections"
    );
    assert!(detections.iter().all(|d| d.session == 3));

    net.shutdown();
    server.shutdown();
}

#[test]
fn malformed_bytes_get_an_error_frame_then_disconnect() {
    use std::io::{Read, Write};

    let server = Server::start(ServerConfig::new().with_shards(1));
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();

    let mut raw = std::net::TcpStream::connect(net.local_addr()).unwrap();
    let mut buf = Vec::new();
    wire::encode(
        &wire::Message::Hello {
            version: wire::VERSION,
            flags: 0,
        },
        &mut buf,
    );
    // A well-formed envelope with an unknown type byte: fatal (§1).
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.push(0x7f);
    raw.write_all(&buf).unwrap();

    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap(); // server hangs up after the error
    let mut rest = &bytes[..];
    let mut msgs = Vec::new();
    while let Some((m, n)) = wire::decode(rest).unwrap() {
        msgs.push(m);
        rest = &rest[n..];
    }
    assert!(matches!(msgs[0], wire::Message::HelloAck { .. }));
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            wire::Message::Error {
                code: wire::ErrorCode::Malformed,
                ..
            }
        )),
        "expected a Malformed error frame, got {msgs:?}"
    );
    assert!(net.metrics().protocol_errors() > 0);

    net.shutdown();
    server.shutdown();
}
