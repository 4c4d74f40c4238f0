//! Network quickstart: a TCP gesture server and a wire-protocol
//! client in one program.
//!
//! Teaches a gesture, puts the sharded server behind a
//! [`NetServer`](gesto::serve::net::NetServer) listening on localhost,
//! then connects the reference [`NetClient`] — a separate TCP
//! connection speaking the binary `GSW1` protocol from
//! `docs/PROTOCOL.md` — streams two sessions of frames through it and
//! prints the detections that come back over the socket.
//!
//! ```sh
//! cargo run --example net_quickstart
//! ```

use gesto::kinect::{gestures, Performer, Persona};
use gesto::serve::net::{NetClient, NetConfig, NetServer};
use gesto::serve::ServerConfig;
use gesto::GestureSystem;

fn main() {
    // Teach from three simulated demonstrations, then upgrade the
    // single-user system into a sharded server.
    let system = GestureSystem::new();
    let samples: Vec<_> = (0..3)
        .map(|seed| {
            let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
            p.render(&gestures::swipe_right())
        })
        .collect();
    system.teach("swipe_right", &samples).expect("teach");
    let server = system
        .into_server(ServerConfig::new().with_shards(2))
        .expect("into_server");

    // The network edge: one I/O thread serving the GSW1 protocol on an
    // OS-assigned localhost port.
    let net = NetServer::start(server.handle(), NetConfig::new()).expect("listen");
    println!("serving GSW1 on {}", net.local_addr());

    // The client half — in a real deployment this runs in another
    // process (as in the `net_e2e` test) or another language entirely;
    // the protocol is specified in docs/PROTOCOL.md.
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    println!("handshake done: {} initial frame credits", client.credits());

    // Two independent sessions multiplexed on one connection: session
    // 1 performs the taught swipe, session 2 a circle (no match).
    for (session, gesture) in [(1u64, gestures::swipe_right()), (2, gestures::circle())] {
        let mut performer = Performer::new(Persona::reference().with_seed(7), 0);
        let frames = performer.render(&gesture);
        // Small batches on purpose: each send_batch spends credit and
        // may block for a grant — that is the server's backpressure
        // reaching the producer.
        for chunk in frames.chunks(16) {
            client.send_batch(session, chunk).expect("send");
        }
        client.close_session(session).expect("close"); // drain barrier
    }

    // Bye flushes the remaining detections and hangs up.
    let detections = client.bye().expect("bye");
    for d in &detections {
        println!(
            "session {} detected {:12} spanning {}ms → {}ms ({} matched events)",
            d.session,
            d.gesture,
            d.started_at,
            d.ts,
            d.events.len()
        );
    }

    let m = net.metrics();
    println!(
        "edge totals: {} frames in over {} bytes, {} detection(s) out, e2e p99 {}µs",
        m.frames_received(),
        m.bytes_in(),
        m.detections_sent(),
        m.latency().quantile(0.99),
    );
    assert!(
        detections.iter().all(|d| d.session == 1),
        "only the swipe session should match"
    );

    net.shutdown();
    server.shutdown();
}
