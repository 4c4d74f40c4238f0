//! A detection's event rows cost tuples only on a connection that asked
//! for them.
//!
//! The shard keeps a detection's matched rows as deferred handles, and
//! the edge reads them, building one `kinect_t` tuple per row, only for
//! a connection whose `Hello` negotiated `FLAG_WANT_EVENTS` (§2 of
//! `docs/PROTOCOL.md`). `NetClient` always asks for them, so a wire
//! workload driven by it builds about one tuple per event row received.
//! This file holds one test: `gesto_tuples_built_total` is process-wide,
//! and another test in the same process would move it.

use std::io::{Read, Write};
use std::net::TcpStream;

use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::net::wire::{self, Message, WireDetection, FLAG_WANT_EVENTS};
use gesto_serve::net::{NetConfig, NetServer};
use gesto_serve::{Server, ServerConfig};
use gesto_stream::metrics::TUPLES_BUILT_TOTAL;

fn swipe_frames(seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
    p.render(&gestures::swipe_right())
}

fn send(stream: &mut TcpStream, msg: &Message) {
    let mut bytes = Vec::new();
    wire::encode(msg, &mut bytes);
    stream.write_all(&bytes).unwrap();
}

/// Says `Hello` with `flags`, sends one performance as a single batch
/// (a block batch: no scalar-path tuples), says `Bye` and returns every
/// detection the server streams back before it hangs up.
fn perform_over_raw_socket(net: &NetServer, flags: u16) -> Vec<WireDetection> {
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    send(
        &mut stream,
        &Message::Hello {
            version: wire::VERSION,
            flags,
        },
    );
    let frames = swipe_frames(200);
    send(&mut stream, &Message::FrameBatch { session: 1, frames });
    send(&mut stream, &Message::Bye);
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    let mut rest = &bytes[..];
    let mut detections = Vec::new();
    while let Some((msg, used)) = wire::decode(rest).unwrap() {
        rest = &rest[used..];
        match msg {
            Message::HelloAck { flags: granted, .. } => assert_eq!(granted, flags),
            Message::Detection(d) => detections.push(d),
            Message::Credit { .. } | Message::SessionClosed { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(rest.is_empty(), "the server hung up mid-message");
    detections
}

#[test]
fn event_rows_are_built_only_for_connections_that_want_them() {
    let server = Server::start(ServerConfig::new());
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    server.teach("swipe_right", &samples).unwrap();
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();

    let before = TUPLES_BUILT_TOTAL.get();
    let plain = perform_over_raw_socket(&net, 0);
    assert!(
        plain.iter().any(|d| d.gesture == "swipe_right"),
        "the swipe was not detected"
    );
    assert!(plain.iter().all(|d| d.events.is_empty()));
    assert_eq!(
        TUPLES_BUILT_TOTAL.get() - before,
        0,
        "a detection nobody asked events of built tuples"
    );

    let before = TUPLES_BUILT_TOTAL.get();
    let with_events = perform_over_raw_socket(&net, FLAG_WANT_EVENTS);
    let rows: usize = with_events.iter().map(|d| d.events.len()).sum();
    assert_eq!(with_events.len(), plain.len());
    assert!(rows > 0, "detections carried no event rows");
    assert_eq!(
        TUPLES_BUILT_TOTAL.get() - before,
        rows as u64,
        "one tuple per event row received"
    );

    net.shutdown();
    server.shutdown();
}
