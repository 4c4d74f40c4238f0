//! # gesto-serve — a sharded multi-session detection runtime
//!
//! The paper's engine detects gestures for *one* user on *one* Kinect
//! stream; this crate is the multi-tenant runtime on the road to serving
//! millions of users: a [`Server`] owns a pool of worker shards, each a
//! thread with a FIFO job queue, and routes every session (one live
//! skeleton stream) to a fixed shard so per-session NFA state stays
//! single-threaded and lock-free.
//!
//! The key economy is **compile once, share everywhere**: a gesture
//! taught or deployed through the [`ServerHandle`] is parsed and compiled
//! into one `Arc<QueryPlan>` and broadcast to all shards, which stamp out
//! cheap per-session instances — deploying one gesture to 10 000 sessions
//! costs one compilation, not 10 000 (the runtime query-exchange of
//! §4 of the paper, made multi-tenant).
//!
//! Ingestion is batched ([`ServerHandle::push_batch`]) over bounded
//! per-shard queues with a configurable [`BackpressurePolicy`] (block /
//! drop-oldest). Detections fan out to [`DetectionSink`]s with
//! their [`SessionId`]; per-shard and per-gesture counters plus p50/p99
//! push latency are aggregated by [`ServerHandle::metrics`]. Shards drain
//! gracefully: [`ServerHandle::drain`], [`ServerHandle::close_session`]
//! and [`Server::shutdown`] all process queued frames before returning.
//!
//! The [`net`] module puts this runtime on the wire: a non-blocking TCP
//! front-end ([`net::NetServer`]) speaking the documented columnar
//! `GSW1` protocol (`docs/PROTOCOL.md`), with credit-based flow control
//! mapped onto the backpressure policies and detections streamed back
//! per session; [`net::NetClient`] is the matching blocking client.
//!
//! ```
//! use gesto_serve::{Server, ServerConfig, SessionId};
//! use gesto_kinect::{gestures, Performer, Persona};
//!
//! let server = Server::start(ServerConfig::new().with_shards(2));
//! let handle = server.handle();
//!
//! // Teach once…
//! let samples: Vec<_> = (0..3)
//!     .map(|seed| {
//!         let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
//!         p.render(&gestures::swipe_right())
//!     })
//!     .collect();
//! handle.teach("swipe_right", &samples).unwrap();
//!
//! // …detect on many concurrent sessions.
//! for user in 0..4u64 {
//!     let mut p = Performer::new(Persona::reference().with_seed(100 + user), 0);
//!     let frames = p.render(&gestures::swipe_right());
//!     handle.push_batch(SessionId(user), frames).unwrap();
//! }
//! handle.drain().unwrap();
//! assert!(handle.metrics().detections() >= 4);
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
mod config;
mod durable;
mod error;
mod metrics;
pub mod net;
mod server;
mod session;
mod shard;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys;
mod telemetry;

pub use config::{BackpressurePolicy, ServerConfig};
pub use durable::ControlOp;
pub use error::ServeError;
pub use metrics::{LatencySummary, OverloadState, ServerMetrics, ShardSnapshot};
pub use server::{DetectionSink, OfferOutcome, Server, ServerHandle};
pub use session::SessionId;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crossbeam::channel::bounded;
    use gesto_kinect::{gestures, Performer, Persona};
    use parking_lot::Mutex;

    use super::*;

    fn swipe_frames(seed: u64) -> Vec<gesto_kinect::SkeletonFrame> {
        let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
        p.render(&gestures::swipe_right())
    }

    fn server_with_swipe(config: ServerConfig) -> Server {
        let server = Server::start(config);
        let samples: Vec<_> = (0..3).map(swipe_frames).collect();
        server.teach("swipe_right", &samples).unwrap();
        server
    }

    #[test]
    fn teach_once_detect_on_many_sessions() {
        let server = server_with_swipe(ServerConfig::new().with_shards(2));
        let hits: Arc<Mutex<Vec<(SessionId, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = hits.clone();
        server.on_detection(Arc::new(move |s, d| {
            sink.lock().push((s, d.gesture.clone()));
        }));

        for user in 0..6u64 {
            server
                .push_batch(SessionId(user), swipe_frames(50 + user))
                .unwrap();
        }
        server.drain().unwrap();

        let hits = hits.lock();
        let mut sessions: Vec<u64> = hits.iter().map(|(s, _)| s.0).collect();
        sessions.sort_unstable();
        sessions.dedup();
        assert_eq!(sessions, vec![0, 1, 2, 3, 4, 5], "every session detected");
        assert!(hits.iter().all(|(_, g)| g == "swipe_right"));
        assert_eq!(server.session_count(), 6);
        assert_eq!(server.metrics().plans_compiled, 1, "compile-once");
        server.shutdown();
    }

    #[test]
    fn deploy_undeploy_midstream() {
        let server = Server::start(ServerConfig::new().with_shards(1));
        server
            .deploy_text(r#"SELECT "hi" MATCHING kinect(head_y > 100000);"#)
            .unwrap();
        assert_eq!(server.deployed(), vec!["hi"]);
        server.push_batch(SessionId(1), swipe_frames(1)).unwrap();
        server.drain().unwrap();
        server.undeploy("hi").unwrap();
        assert!(server.deployed().is_empty());
        assert!(matches!(
            server.undeploy("hi"),
            Err(ServeError::Cep(gesto_cep::CepError::UnknownQuery(_)))
        ));
        server.shutdown();
    }

    #[test]
    fn drop_oldest_policy_sheds_head_of_queue() {
        let server = Server::start(
            ServerConfig::new()
                .with_shards(1)
                .with_queue_capacity(2)
                .with_backpressure(BackpressurePolicy::DropOldest),
        );
        // Single-event query marking which batches survive: each batch
        // carries a distinct, instantly matching first frame timestamp.
        server
            .deploy_text(r#"SELECT "any" MATCHING kinect(head_y > -100000);"#)
            .unwrap();
        let ts_seen: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = ts_seen.clone();
        server.on_detection(Arc::new(move |_s, d| sink.lock().push(d.ts)));

        let (hold_tx, hold_rx) = bounded::<()>(0);
        server.barrier_for_test(hold_tx);
        // Batches B0..B3 of one frame each, with distinct timestamps.
        let base = swipe_frames(1);
        for (i, f) in base.iter().take(4).enumerate() {
            let mut f = f.clone();
            f.ts = 1_000_000 + i as i64;
            server.push_batch(SessionId(0), vec![f]).unwrap();
        }
        // cap=2: B2 and B3 each requested one oldest-batch shed.
        hold_rx.recv().unwrap();
        server.drain().unwrap();

        let seen = ts_seen.lock().clone();
        assert_eq!(seen, vec![1_000_002, 1_000_003], "oldest two batches shed");
        let m = server.metrics();
        assert_eq!(m.shed_frames(), 2);
        assert_eq!(m.frames_in(), 2);
        server.shutdown();
    }

    /// Pushes one-frame batches (`ts` 2 000 000, 2 000 001, …) for
    /// session 0 behind a parked shard 0: three, a pause of 300 ms, a
    /// fourth, then releases the worker and drains.
    fn three_old_batches_and_a_fresh_one(server: &Server) {
        let (hold_tx, hold_rx) = bounded::<()>(0);
        server.barrier_for_test(hold_tx);
        let frame = |i: i64| {
            let mut f = swipe_frames(1).remove(0);
            f.ts = 2_000_000 + i;
            vec![f]
        };
        for i in 0..3 {
            server.push_batch(SessionId(0), frame(i)).unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        server.push_batch(SessionId(0), frame(3)).unwrap();
        hold_rx.recv().unwrap();
        server.drain().unwrap();
    }

    #[test]
    fn stale_batches_are_shed_under_drop_oldest_only() {
        let config = |policy| {
            ServerConfig::new()
                .with_shards(1)
                .with_queue_capacity(8)
                .with_backpressure(policy)
                .with_max_batch_age_ms(200)
        };
        // DropOldest: the three batches that waited 300 ms are past the
        // 200 ms deadline when the worker dequeues them; the fourth is not.
        let server = Server::start(config(BackpressurePolicy::DropOldest));
        three_old_batches_and_a_fresh_one(&server);
        let m = server.metrics();
        let s = &m.shards[0];
        assert_eq!((s.stale_batches, s.stale_frames), (3, 3));
        assert_eq!(m.frames_in(), 1);
        assert_eq!(m.shed_frames(), 0, "capacity 8 never asked to shed");
        assert_eq!(m.admission_dropped_frames(), 3);
        let text = server.registry().render();
        assert!(
            text.contains("gesto_admission_rejected_total{reason=\"stale\"} 3\n"),
            "{text}"
        );
        server.shutdown();

        // Block: the deadline does not apply; every frame is processed.
        let server = Server::start(config(BackpressurePolicy::Block));
        three_old_batches_and_a_fresh_one(&server);
        let m = server.metrics();
        assert_eq!(m.frames_in(), 4);
        assert_eq!(
            (m.shards[0].stale_batches, m.shards[0].stale_frames),
            (0, 0)
        );
        assert_eq!(m.admission_dropped_frames(), 0);
        server.shutdown();
    }

    /// One plaintext `GET /healthz` against the edge: status code and body.
    fn healthz(addr: std::net::SocketAddr) -> (u16, String) {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        let _ = stream.read_to_string(&mut resp);
        let status = resp.split_whitespace().nth(1).and_then(|s| s.parse().ok());
        let body = resp.split("\r\n\r\n").nth(1).unwrap_or("").trim();
        (status.unwrap_or(0), body.to_owned())
    }

    #[test]
    fn overload_state_machine_sheds_then_rejects_new_sessions_and_recovers() {
        use net::{NetClient, NetConfig, NetServer};
        let server = Server::start(
            ServerConfig::new()
                .with_shards(1)
                .with_queue_capacity(4)
                .with_backpressure(BackpressurePolicy::Block),
        );
        server
            .deploy_text(r#"SELECT "any" MATCHING kinect(head_y > -100000);"#)
            .unwrap();
        let edge = NetServer::start(server.handle(), NetConfig::new()).unwrap();
        let addr = edge.local_addr();
        assert_eq!(healthz(addr), (200, "healthy".to_owned()));

        // Park the worker and fill its queue one batch at a time: depth
        // over capacity 4 is the fill the state machine classifies.
        let (hold_tx, hold_rx) = bounded::<()>(0);
        server.barrier_for_test(hold_tx);
        let frame = swipe_frames(1).remove(0);
        let mut states = Vec::new();
        for _ in 0..4 {
            server
                .push_batch(SessionId(0), vec![frame.clone()])
                .unwrap();
            states.push(server.overload_state());
        }
        use OverloadState::{Healthy, Rejecting, Shedding};
        assert_eq!(states[1..], [Healthy, Shedding, Rejecting], "depth 2, 3, 4");

        // Rejecting: load balancers are told to steer away, and a new
        // session bind is refused with a non-fatal `Overloaded`.
        assert_eq!(
            healthz(addr),
            (503, "rejecting".to_owned()),
            "/healthz while rejecting"
        );
        let mut client = NetClient::connect(addr).unwrap();
        client.open_session(7).unwrap();
        client.ping().unwrap(); // the refusal arrives before the pong
        assert_eq!(client.admission_rejections(), 1);
        assert_eq!(edge.metrics().sessions_rejected(), 1);
        assert!(server
            .registry()
            .render()
            .contains("\ngesto_net_sessions_rejected_total 1\n"));

        // Released and drained: healthy again, and the same connection
        // binds the session and streams.
        hold_rx.recv().unwrap();
        server.drain().unwrap();
        assert_eq!(server.overload_state(), Healthy);
        assert_eq!(healthz(addr), (200, "healthy".to_owned()));
        let frames = swipe_frames(2);
        client.send_batch(7, &frames).unwrap();
        let detections = client.bye().unwrap();
        assert_eq!(detections.len(), frames.len(), "one detection per frame");
        assert!(detections.iter().all(|d| d.session == 7));
        assert_eq!(edge.metrics().sessions_rejected(), 1);
        edge.shutdown();
        server.shutdown();
    }

    #[test]
    fn blocking_policy_loses_nothing() {
        let server = server_with_swipe(
            ServerConfig::new()
                .with_shards(1)
                .with_queue_capacity(1)
                .with_backpressure(BackpressurePolicy::Block),
        );
        let frames = swipe_frames(7);
        let total: usize = 20 * frames.len();
        for _ in 0..20 {
            server.push_batch(SessionId(3), frames.clone()).unwrap();
        }
        server.close_session(SessionId(3)).unwrap();
        let m = server.metrics();
        assert_eq!(m.frames_in(), total as u64, "no frame lost while blocking");
        assert_eq!(m.shed_frames(), 0);
        assert_eq!(server.session_count(), 0, "session closed");
        server.shutdown();
    }

    #[test]
    fn blocking_producer_racing_shutdown_neither_deadlocks_nor_miscounts() {
        let server = server_with_swipe(
            ServerConfig::new()
                .with_shards(1)
                .with_queue_capacity(1)
                .with_backpressure(BackpressurePolicy::Block),
        );
        let handle = server.handle();
        let (hold_tx, hold_rx) = bounded::<()>(0);
        server.barrier_for_test(hold_tx);
        let frames = swipe_frames(1);
        let per_batch = frames.len() as u64;
        // Fills cap=1 behind the clogged worker.
        server.push_batch(SessionId(0), frames.clone()).unwrap();

        // This producer parks in the queue gate's `wait_for_room`.
        let (done_tx, done_rx) = bounded(1);
        let producer = {
            let handle = handle.clone();
            let frames = frames.clone();
            std::thread::spawn(move || {
                let _ = done_tx.send(handle.push_batch(SessionId(0), frames));
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(done_rx.try_recv().is_err(), "producer should be parked");

        // Race shutdown against the parked producer's wakeup.
        let shutdown = std::thread::spawn(move || server.shutdown());
        hold_rx.recv().unwrap(); // unclog the worker
        let res = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("parked producer must resolve during shutdown, not deadlock");
        producer.join().unwrap();
        shutdown.join().unwrap();

        let m = handle.metrics();
        match res {
            // Accepted: processed before the stop signal reached the
            // worker, or still queued when the worker exited (shutdown
            // drains only what was queued when it began) — never
            // double-counted.
            Ok(()) => assert!(
                m.frames_in() == per_batch || m.frames_in() == 2 * per_batch,
                "frames_in {} not a whole number of accepted batches",
                m.frames_in()
            ),
            // Handed back by the closing shard: not counted as ingested.
            Err(ServeError::Shutdown) => assert_eq!(m.frames_in(), per_batch),
            other => panic!("unexpected producer result: {other:?}"),
        }
        assert_eq!(m.shed_frames(), 0, "Block policy never sheds");
        assert!(matches!(
            handle.push_batch(SessionId(9), swipe_frames(9)),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn queue_capacity_zero_behaves_as_one() {
        // The field is public: a literal 0 bypasses the builder. It
        // used to park `push_batch` forever (depth 0 is never below 0).
        let config = ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::new().with_shards(1)
        };
        assert_eq!(config.effective_queue_capacity(), 1);
        let server = server_with_swipe(config);
        let handle = server.handle();
        let (done_tx, done_rx) = bounded(1);
        std::thread::spawn(move || {
            let _ = done_tx.send(handle.push_batch(SessionId(0), swipe_frames(60)));
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a capacity-0 server accepts")
            .unwrap();
        server.drain().unwrap();
        assert_eq!(server.metrics().per_gesture.get("swipe_right"), Some(&1));
        server.shutdown();
    }

    #[test]
    fn blocked_producers_stress_loses_nothing_and_never_needs_the_backstop() {
        const PRODUCERS: u64 = 4;
        const BATCHES: u64 = 20_000;
        let frame = swipe_frames(1).remove(0);
        for cap in [8, 64] {
            let server = Server::start(
                ServerConfig::new()
                    .with_shards(1)
                    .with_queue_capacity(cap)
                    .with_backpressure(BackpressurePolicy::Block),
            );
            std::thread::scope(|scope| {
                for p in 0..PRODUCERS {
                    let (handle, frame) = (server.handle(), frame.clone());
                    scope.spawn(move || {
                        for _ in 0..BATCHES {
                            handle
                                .push_batch(SessionId(p), vec![frame.clone()])
                                .unwrap();
                        }
                    });
                }
            });
            server.drain().unwrap();
            let m = server.metrics();
            assert_eq!(m.frames_in(), PRODUCERS * BATCHES, "cap {cap}");
            let shard = &m.shards[0];
            assert_eq!(shard.gate_backstops, 0, "cap {cap}: a wake-up went missing");
            assert!(
                shard.producer_wakeups <= shard.batches_in / (cap as u64 / 4),
                "cap {cap}: {} wake-ups for {} batches",
                shard.producer_wakeups,
                shard.batches_in
            );
            server.shutdown();
        }
    }

    #[test]
    fn offer_only_traffic_never_wakes_anyone() {
        let server = Server::start(
            ServerConfig::new()
                .with_shards(1)
                .with_queue_capacity(64)
                .with_backpressure(BackpressurePolicy::Block),
        );
        let frame = swipe_frames(1).remove(0);
        let mut full = 0u64;
        for _ in 0..5_000 {
            let mut frames = vec![frame.clone()];
            // The non-blocking entry point: a full queue hands the
            // frames back, the caller (here: the test) comes back later.
            while let OfferOutcome::Full(back) = server.offer_batch(SessionId(0), frames).unwrap() {
                frames = back;
                full += 1;
                std::thread::yield_now();
            }
        }
        server.drain().unwrap();
        let m = server.metrics();
        assert_eq!(m.frames_in(), 5_000);
        assert_eq!(
            m.shards[0].producer_wakeups, 0,
            "{full} offers found it full"
        );
        assert_eq!(m.shards[0].gate_backstops, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_further_pushes() {
        let server = server_with_swipe(ServerConfig::new().with_shards(1));
        let handle = server.handle();
        server.shutdown();
        assert!(matches!(
            handle.push_batch(SessionId(0), swipe_frames(0)),
            Err(ServeError::Shutdown)
        ));
    }

    #[test]
    fn sessions_route_stably_across_shards() {
        let server = server_with_swipe(ServerConfig::new().with_shards(3));
        for user in 0..9u64 {
            server
                .push_batch(SessionId(user), swipe_frames(user))
                .unwrap();
        }
        server.drain().unwrap();
        let m = server.metrics();
        let per_shard: Vec<usize> = m.shards.iter().map(|s| s.sessions).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 9, "every session resident");
        // Hashed routing spreads even 9 sequential ids over all 3 shards
        // (exact placement is pinned by the splitmix64 hash).
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "hashed routing uses every shard: {per_shard:?}"
        );
        // Routing is stable: re-pushing the same ids adds no sessions.
        for user in 0..9u64 {
            server
                .push_batch(SessionId(user), swipe_frames(user))
                .unwrap();
        }
        server.drain().unwrap();
        assert_eq!(server.metrics().sessions(), 9);
        assert!(m.shards.iter().all(|s| s.latency.samples > 0));
        server.shutdown();
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gesto-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_server_restarts_from_disk() {
        let dir = temp_dir("restart");
        let detections_of = |server: &Server| {
            for user in 0..3u64 {
                server
                    .push_batch(SessionId(user), swipe_frames(200 + user))
                    .unwrap();
            }
            server.drain().unwrap();
            server.metrics().per_gesture.clone()
        };

        let server = Server::start(ServerConfig::new().with_shards(2).with_durability(&dir));
        let samples: Vec<_> = (0..3).map(swipe_frames).collect();
        server.teach("swipe_right", &samples).unwrap();
        let never = r#"SELECT "never" MATCHING kinect(head_y > 100000);"#;
        server.deploy_text(never).unwrap();
        server
            .deploy_text(r#"SELECT "gone" MATCHING kinect(head_y > 100000);"#)
            .unwrap();
        server.undeploy("gone").unwrap();
        server.deploy_text(never).unwrap();
        let versions = server.deployed_versions();
        assert_eq!(versions, [("never".into(), 2), ("swipe_right".into(), 1)]);
        let store_snap = server.store().snapshot();
        let first_run = detections_of(&server);
        assert!(first_run.contains_key("swipe_right"));
        server.shutdown();

        // A restarted server recovers the full control plane from disk —
        // store, deployed plans with versions — and detects the
        // same performances identically. Compiled once per plan, on
        // recovery.
        let server = Server::start(ServerConfig::new().with_shards(2).with_durability(&dir));
        assert_eq!(server.deployed_versions(), versions);
        assert_eq!(server.store().snapshot(), store_snap);
        assert_eq!(server.metrics().plans_compiled, 2);
        assert_eq!(detections_of(&server), first_run);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_ops_beyond_checkpoint() {
        let dir = temp_dir("replay");
        let server = Server::start(ServerConfig::new().with_shards(1).with_durability(&dir));
        let early = r#"SELECT "early" MATCHING kinect(head_y > 100000);"#;
        server.deploy_text(early).unwrap();
        server.checkpoint().unwrap().expect("durability is on");
        // Ops after the checkpoint live only in the journal tail.
        server.deploy_text(early).unwrap();
        server
            .deploy_text(r#"SELECT "late" MATCHING kinect(head_y > 100000);"#)
            .unwrap();
        server.shutdown();

        let server = Server::start(ServerConfig::new().with_shards(1).with_durability(&dir));
        assert_eq!(
            server.deployed_versions(),
            [("early".into(), 2), ("late".into(), 1)]
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_sixteenth_journaled_op_takes_the_automatic_checkpoint() {
        let dir = temp_dir("pace");
        let server = Server::start(ServerConfig::new().with_shards(1).with_durability(&dir));
        let checkpoints = || {
            let text = server.registry().render();
            text.lines()
                .find(|l| l.starts_with("gesto_checkpoints_total "))
                .map(str::to_owned)
        };
        // One journaled op per deploy.
        let deploy = || {
            server
                .deploy_text(r#"SELECT "paced" MATCHING kinect(head_y > 100000);"#)
                .unwrap()
        };
        for _ in 0..15 {
            deploy();
        }
        let expect = |n| Some(format!("gesto_checkpoints_total {n}"));
        assert_eq!(checkpoints(), expect(0), "after op 15");
        deploy();
        assert_eq!(checkpoints(), expect(1), "after op 16");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_holding_a_removed_op_fails_recovery() {
        // Journals written before the config store was removed can hold
        // `SetConfig` records; recovery refuses them instead of guessing.
        let dir = temp_dir("removed-op");
        let (mut journal, _) = gesto_durability::Journal::open(&dir).unwrap();
        journal
            .append(br#"{"SetConfig":{"key":"mode","value":"demo"}}"#)
            .unwrap();
        drop(journal);
        let err = Server::try_start(ServerConfig::new().with_shards(1).with_durability(&dir))
            .err()
            .expect("recovery fails");
        assert!(
            matches!(&err, ServeError::Durability(m) if m.contains("unknown variant `SetConfig`")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn redeploy_bumps_version_and_drains_in_flight_runs() {
        let server = server_with_swipe(ServerConfig::new().with_shards(1));
        assert_eq!(server.plan_version("swipe_right"), Some(1));
        let text = server
            .store()
            .get("swipe_right")
            .unwrap()
            .query_text
            .unwrap();

        // Seed an in-flight partial match: the first half of a swipe.
        let frames = swipe_frames(77);
        let (head, tail) = frames.split_at(frames.len() / 2);
        server.push_batch(SessionId(0), head.to_vec()).unwrap();
        server.drain().unwrap();

        // Redeploy the same query mid-gesture: version 2 cuts in at the
        // batch boundary, version 1 keeps draining its in-flight run.
        server.deploy_text(&text).unwrap();
        assert_eq!(server.plan_version("swipe_right"), Some(2));
        server.drain().unwrap();
        let retiring: usize = server.metrics().shards.iter().map(|s| s.retiring).sum();
        assert_eq!(retiring, 1, "old version still draining");

        // The drained run completes across the cutover: the performance
        // begun under v1 is still detected — a redeploy under load loses
        // no in-flight detection.
        server.push_batch(SessionId(0), tail.to_vec()).unwrap();
        server.drain().unwrap();
        assert_eq!(
            server.metrics().per_gesture.get("swipe_right"),
            Some(&1),
            "performance spanning the rollout detected exactly once"
        );
        server.shutdown();
    }
}
