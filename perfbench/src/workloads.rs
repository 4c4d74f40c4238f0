//! The four workloads: set-up of the system under test, the closed-loop
//! and open-loop load generators, and the accounting every run is
//! judged by. Only public APIs of the gesto crates are called.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gesto_cep::Query;
use gesto_kinect::SkeletonFrame;
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::Learner;
use gesto_serve::net::{NetClient, NetConfig, NetServer};
use gesto_serve::{BackpressurePolicy, Server, ServerConfig, SessionId};
use gesto_transform::{TransformConfig, Transformer};

use crate::gen::{GestureSource, Trace, TRACE_FRAMES};
use crate::oracle::Key;
use crate::stats::quantile;

/// Frames per pushed batch on the closed-loop workloads.
pub const BATCH: usize = 30;
/// Frames per session in one measured segment of a closed loop. A run
/// is a whole number of segments; each is drained and yields one `fps`
/// and one pair of latency quantiles, and the run reports their medians.
pub const SEGMENT_FRAMES: usize = 300;
/// Frames per session pushed by set-up's warm-up pass.
pub const WARMUP_FRAMES: usize = 60;
/// Every session's stream starts here (the tail of a notional earlier
/// replay, so all timestamps are non-negative and increasing)…
pub const WARMUP_START: usize = TRACE_FRAMES - WARMUP_FRAMES;
/// …and measurement starts here.
pub const MEASURE_START: usize = TRACE_FRAMES;
/// TCP connections the wire workloads multiplex their sessions over.
pub const CONNECTIONS: usize = 2;
/// One sensor frame period: a detection reported later than this after
/// its completing frame was due has missed the UI's deadline.
pub const LATENCY_LIMIT_US: f64 = 1e6 / SENSOR_HZ;
/// Sub-runs the open loop's latencies are grouped into.
const PACED_GROUPS: usize = 3;
/// Sensor rate of the open-loop workload, per session.
pub const SENSOR_HZ: f64 = 30.0;

/// One named workload.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub sessions: usize,
    pub gestures: usize,
    /// Through `NetServer` over loopback TCP instead of `push_batch`.
    pub wire: bool,
    /// Open loop: 1-frame messages on a fixed 30 Hz schedule.
    pub paced: bool,
}

impl Spec {
    pub fn batch(&self) -> usize {
        if self.paced {
            1
        } else {
            BATCH
        }
    }

    /// Whether predicates and NFA stepping, not the per-frame
    /// transform, should dominate the engine's time: the catalog is
    /// large enough to outweigh the once-per-frame work.
    pub fn match_heavy(&self) -> bool {
        self.gestures >= 32
    }

    /// Same workload at another session count (the `--ladder` rungs).
    pub fn with_sessions(&self, sessions: usize) -> Spec {
        Spec { sessions, ..*self }
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "inproc_512x4",
        why: "closed loop, push_batch, 512 sessions x 4 learned gestures, 30-frame batches: frame->tuple, kinect_t and view evaluation dominate, the NFA is small, no network",
        sessions: 512,
        gestures: 4,
        wire: false,
        paced: false,
    },
    Spec {
        name: "inproc_catalog64",
        why: "closed loop, push_batch, 64 sessions x 64 distinct learned gestures, 30-frame batches: predicate kernels and NFA stepping dominate; set-up carries 64 compiles and deploys",
        sessions: 64,
        gestures: 64,
        wire: false,
        paced: false,
    },
    Spec {
        name: "wire_saturate",
        why: "closed by credit window, 2 loopback TCP connections x 256 sessions, inputs of inproc_512x4: same engine work plus GSW1 codec, syscalls and credit traffic, i.e. the edge's cost",
        sessions: 512,
        gestures: 4,
        wire: true,
        paced: false,
    },
    Spec {
        name: "wire_paced",
        why: "open loop, 2 connections x 256 sessions, each a 30 Hz sensor sending 1-frame messages on a fixed staggered schedule (15360 msg/s): per-message cost and detection latency",
        sessions: 512,
        gestures: 4,
        wire: true,
        paced: true,
    },
];

/// The server configuration every workload runs: one shard, pinned (to
/// core 1 by the server's placement policy), so the worker has one core
/// of this 2-core host and everything else the other.
pub fn server_config() -> ServerConfig {
    ServerConfig::new()
        .with_shards(1)
        .with_queue_capacity(256)
        .with_backpressure(BackpressurePolicy::Block)
        .with_pin_shards(true)
}

pub fn net_config() -> NetConfig {
    NetConfig::new()
}

/// Frame `p` of a session's endless replay of `trace`.
pub fn stream_frame(trace: &Trace, p: usize) -> SkeletonFrame {
    let mut f = trace.frames[p % TRACE_FRAMES].clone();
    f.ts += (p / TRACE_FRAMES) as i64 * trace.span_ms;
    f
}

/// The program's learning step: per gesture, transform each raw sample
/// with a fresh `Transformer`, merge the samples in a `Learner`, and
/// generate the query — the pipeline `ServerHandle::teach` runs, minus
/// the gesture store.
pub fn learn(sources: &[GestureSource]) -> Vec<Query> {
    sources
        .iter()
        .map(|g| {
            let mut learner = Learner::new(g.config.clone());
            for frames in &g.samples {
                let mut tr = Transformer::new(TransformConfig::default());
                let transformed: Vec<SkeletonFrame> = frames
                    .iter()
                    .filter_map(|f| tr.transform_frame(f))
                    .collect();
                learner
                    .add_sample_frames(&transformed)
                    .expect("generated sample is non-empty");
            }
            let def = learner
                .finalize(&g.name)
                .expect("generated samples are learnable");
            generate_query(&def, QueryStyle::TransformedView)
        })
        .collect()
}

/// One received detection.
struct Obs {
    session: usize,
    key: Key,
    recv_ns: u64,
}

/// Where detections land, stamped on receipt: the in-process sink
/// writes from the shard thread, the wire clients from the generator.
struct Collector {
    epoch: Instant,
    ids: HashMap<String, u16>,
    obs: Mutex<Vec<Obs>>,
    /// Detections naming a gesture outside the catalog.
    unknown: Mutex<u64>,
}

impl Collector {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, session: u64, gesture: &str, ts: i64) {
        let recv_ns = self.now_ns();
        match self.ids.get(gesture) {
            Some(&id) => self.obs.lock().expect("collector").push(Obs {
                session: session as usize,
                key: (id, ts),
                recv_ns,
            }),
            None => *self.unknown.lock().expect("collector") += 1,
        }
    }

    fn take(&self) -> Vec<Obs> {
        std::mem::take(&mut *self.obs.lock().expect("collector"))
    }
}

/// Wall time of set-up and its parts, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub start_s: f64,
    pub learn_s: f64,
    pub deploy_s: f64,
    pub open_s: f64,
    pub warmup_s: f64,
}

/// The system under test, ready to take traffic.
pub struct System<'a> {
    spec: &'a Spec,
    traces: &'a [Trace],
    server: Server,
    net: Option<NetServer>,
    clients: Vec<NetClient>,
    collector: Arc<Collector>,
    /// Frames handed to the system since start (warm-up included).
    sent: u64,
    /// Time spent inside `push_batch` / `send_batch`.
    blocked_ns: u64,
    queue_depth_max: usize,
    sends: u64,
}

impl<'a> System<'a> {
    /// The program's set-up, timed: start the server (and edge), learn
    /// and deploy the catalog, open every session, one warm-up pass.
    pub fn setup(
        spec: &'a Spec,
        traces: &'a [Trace],
        catalog: &[GestureSource],
        ids: &HashMap<String, u16>,
    ) -> (Self, SetupTimes) {
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        let server = Server::start(server_config());
        let collector = Arc::new(Collector {
            epoch: Instant::now(),
            ids: ids.clone(),
            obs: Mutex::new(Vec::new()),
            unknown: Mutex::new(0),
        });
        let (net, clients) = if spec.wire {
            let net = NetServer::start(server.handle(), net_config()).expect("bind loopback");
            let clients = (0..CONNECTIONS)
                .map(|_| NetClient::connect(net.local_addr()).expect("connect"))
                .collect();
            (Some(net), clients)
        } else {
            let sink = collector.clone();
            server.on_detection(Arc::new(move |sid, d| sink.record(sid.0, &d.gesture, d.ts)));
            (None, Vec::new())
        };
        times.start_s = t0.elapsed().as_secs_f64();

        let t = Instant::now();
        let queries = learn(&catalog[..spec.gestures]);
        times.learn_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for q in queries {
            server.deploy(q).expect("learned query deploys");
        }
        times.deploy_s = t.elapsed().as_secs_f64();

        let mut sys = System {
            spec,
            traces,
            server,
            net,
            clients,
            collector,
            sent: 0,
            blocked_ns: 0,
            queue_depth_max: 0,
            sends: 0,
        };
        // Sessions are opened here, not by their first batch, so that
        // admission control can never shrink a run's denominator unseen.
        let t = Instant::now();
        for s in 0..spec.sessions {
            if spec.wire {
                sys.clients[s % CONNECTIONS]
                    .open_session(s as u64)
                    .expect("open session");
            } else {
                sys.server
                    .open_session(SessionId(s as u64))
                    .expect("open session");
            }
        }
        for client in &mut sys.clients {
            // A bind is refused while the shard queue is full; wait for
            // every bind to land before any traffic can fill it.
            client.ping().expect("ping");
        }
        times.open_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let batch = spec.batch();
        for p in (WARMUP_START..MEASURE_START).step_by(batch) {
            for s in 0..spec.sessions {
                sys.send(s, p, batch);
            }
        }
        sys.settle();
        sys.collector.take();
        sys.blocked_ns = 0;
        sys.queue_depth_max = 0;
        times.warmup_s = t.elapsed().as_secs_f64();
        times.total_s = t0.elapsed().as_secs_f64();
        (sys, times)
    }

    /// Hands frames `p..p+n` of session `s`'s stream to the system and
    /// returns when the call was made (ns since the collector's epoch).
    fn send(&mut self, s: usize, p: usize, n: usize) -> u64 {
        let trace = &self.traces[s % self.traces.len()];
        let frames: Vec<SkeletonFrame> = (p..p + n).map(|q| stream_frame(trace, q)).collect();
        let t0 = self.collector.now_ns();
        if self.spec.wire {
            self.clients[s % CONNECTIONS]
                .send_batch(s as u64, &frames)
                .expect("send batch");
        } else {
            self.server
                .push_batch(SessionId(s as u64), frames)
                .expect("push batch");
        }
        self.blocked_ns += self.collector.now_ns() - t0;
        self.sent += n as u64;
        self.sends += 1;
        if self.spec.wire {
            self.poll_clients(s % CONNECTIONS..s % CONNECTIONS + 1);
        }
        // A cheap periodic peek, for `serve.queue_depth_max`.
        if self.sends.is_multiple_of(64) {
            let depth = self.server.metrics().queue_depth();
            self.queue_depth_max = self.queue_depth_max.max(depth);
        }
        t0
    }

    /// Stamps whatever detections the given connections have delivered.
    fn poll_clients(&mut self, which: std::ops::Range<usize>) {
        for client in &mut self.clients[which] {
            for d in client.take_detections().expect("read detections") {
                self.collector.record(d.session, &d.gesture, d.ts);
            }
        }
    }

    /// Frames the server has accounted for, processed or not.
    fn accounted(&self) -> u64 {
        let m = self.server.metrics();
        let refused = self.net.as_ref().map_or(0, |n| {
            n.metrics().batches_rejected() * self.spec.batch() as u64
        });
        m.frames_in()
            + m.shed_frames()
            + m.admission_dropped_frames()
            + m.quarantined_frames()
            + refused
    }

    /// Returns once everything sent so far is processed and its
    /// detections are collected.
    fn settle(&mut self) {
        if self.spec.wire {
            // Keep stamping detections while the tail drains, so their
            // latency is not inflated by a blocking wait.
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.accounted() < self.sent && Instant::now() < deadline {
                self.poll_clients(0..CONNECTIONS);
            }
        }
        self.server.drain().expect("drain");
        if self.spec.wire {
            for client in &mut self.clients {
                // The shard thread writes detections before the I/O
                // thread answers: after the pong they are all here.
                client.ping().expect("ping");
            }
            self.poll_clients(0..CONNECTIONS);
        }
    }

    /// Frames sent but not yet accounted for by the server.
    fn backlog(&self) -> u64 {
        self.sent.saturating_sub(self.accounted())
    }

    /// Stops the system and returns the closing ledger.
    pub fn shutdown(self) -> Ledger {
        let mut ledger = Ledger {
            sent: self.sent,
            queue_depth_max: self.queue_depth_max,
            unknown_gestures: *self.collector.unknown.lock().expect("collector"),
            ..Ledger::default()
        };
        for client in self.clients {
            ledger.client_drop_notices += client.drop_notices();
            ledger.client_admission_rejections += client.admission_rejections();
            ledger.late_detections_at_bye += client.bye().expect("bye").len() as u64;
        }
        let m = self.server.metrics();
        ledger.frames_in = m.frames_in();
        ledger.shed = m.shed_frames();
        ledger.stale_quota = m.admission_dropped_frames();
        ledger.quarantined = m.quarantined_frames();
        ledger.push_latency_p99_us = m.shards.iter().map(|s| s.latency.p99_us).max().unwrap_or(0);
        if let Some(net) = self.net {
            let n = net.metrics();
            ledger.net_batches_rejected = n.batches_rejected();
            ledger.net_sessions_rejected = n.sessions_rejected();
            ledger.net_batches_parked = n.batches_parked();
            ledger.net_credit_stalls = n.credit_stalls();
            net.shutdown();
        }
        self.server.shutdown();
        ledger
    }

    /// Idle round-trip of the edge (`NetClient::ping`), p50 of `n`.
    pub fn ping_rtt_p50_us(&mut self, n: usize) -> f64 {
        let Some(client) = self.clients.first_mut() else {
            return 0.0;
        };
        let mut rtts: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                client.ping().expect("ping");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        quantile(&mut rtts, 0.5)
    }
}

/// Counts read from the server, the edge and the clients when a run
/// ends; the conservation identity and the failure count come from it.
#[derive(Default, Clone, Copy)]
pub struct Ledger {
    pub sent: u64,
    pub frames_in: u64,
    pub shed: u64,
    pub stale_quota: u64,
    pub quarantined: u64,
    pub unknown_gestures: u64,
    /// Deepest shard queue seen by the generator's periodic peek.
    pub queue_depth_max: usize,
    pub push_latency_p99_us: u64,
    pub client_drop_notices: u64,
    pub client_admission_rejections: u64,
    pub late_detections_at_bye: u64,
    pub net_batches_rejected: u64,
    pub net_sessions_rejected: u64,
    pub net_batches_parked: u64,
    pub net_credit_stalls: u64,
}

impl Ledger {
    /// Frames the system took and did not process.
    pub fn frames_lost(&self) -> u64 {
        self.sent - self.frames_in.min(self.sent)
    }

    /// `sent = frames_in + shed + stale + quota + quarantined` (plus
    /// batches the edge refused, which never reach a shard).
    pub fn conserved(&self, batch: usize) -> bool {
        self.sent
            == self.frames_in
                + self.shed
                + self.stale_quota
                + self.quarantined
                + self.net_batches_rejected * batch as u64
    }

    /// Refusal and drop notices that cost no frame but still mean the
    /// system turned work away.
    pub fn notices(&self) -> u64 {
        self.client_drop_notices
            + self.client_admission_rejections
            + self.unknown_gestures
            + self.late_detections_at_bye
    }
}

/// What a measured run produced.
pub struct Outcome {
    /// Frames per second of each drained segment (one for the open
    /// loop, whose rate is the schedule's).
    pub fps: Vec<f64>,
    /// Detection latencies in µs, grouped: per segment in a closed
    /// loop, per third of the schedule in the open loop. The run
    /// reports the median over groups of each group's quantile, so one
    /// scheduling hiccup of the host cannot set the result.
    pub lat_us: Vec<Vec<f64>>,
    /// Measured frames handed to the system.
    pub frames: u64,
    /// Stream position every session reached.
    pub end: usize,
    /// `(gesture, ts)` received per session over `MEASURE_START..end`.
    pub observed: Vec<Vec<Key>>,
    /// Detections that named no frame of the segment they arrived in.
    pub unplaced: u64,
    pub wall_s: f64,
    pub blocked_share: f64,
    /// Open loop only: how late each send ran, in µs.
    pub gen_late_us: Vec<f64>,
    /// Open loop only: frames outstanding when the schedule ended.
    pub backlog_end: u64,
}

/// Moves a segment's detections into `observed` and returns, for each,
/// the batch of its session it completed in and its latency in µs
/// against `submit_ns` (indexed session-major by batch).
fn place(
    sys: &System<'_>,
    seg_start: usize,
    per_session: usize,
    submit_ns: &[u64],
    observed: &mut [Vec<Key>],
    unplaced: &mut u64,
) -> Vec<(usize, f64)> {
    let batch = sys.spec.batch();
    let mut lat = Vec::new();
    for o in sys.collector.take() {
        if o.session >= observed.len() {
            *unplaced += 1;
            continue;
        }
        observed[o.session].push(o.key);
        let trace = &sys.traces[o.session % sys.traces.len()];
        let slot = trace
            .locate(o.key.1)
            .map(|(round, idx)| round * TRACE_FRAMES + idx)
            .filter(|p| (seg_start..seg_start + per_session * batch).contains(p))
            .map(|p| (p - seg_start) / batch);
        match slot {
            Some(b) => {
                let submitted = submit_ns[o.session * per_session + b];
                lat.push((b, o.recv_ns.saturating_sub(submitted) as f64 / 1e3));
            }
            None => *unplaced += 1,
        }
    }
    lat
}

/// Closed loop: whole segments, sessions interleaved batch by batch as
/// a gateway multiplexing live streams would, until `seconds` have
/// passed. The next batch goes out as soon as the system takes it.
pub fn run_closed(sys: &mut System<'_>, seconds: f64) -> Outcome {
    let spec = sys.spec;
    let per_session = SEGMENT_FRAMES / BATCH;
    let mut submit_ns = vec![0u64; spec.sessions * per_session];
    let mut out = Outcome {
        fps: Vec::new(),
        lat_us: Vec::new(),
        frames: 0,
        end: MEASURE_START,
        observed: vec![Vec::new(); spec.sessions],
        unplaced: 0,
        wall_s: 0.0,
        blocked_share: 0.0,
        gen_late_us: Vec::new(),
        backlog_end: 0,
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let seg_start = out.end;
        let t0 = Instant::now();
        for b in 0..per_session {
            for s in 0..spec.sessions {
                submit_ns[s * per_session + b] = sys.send(s, seg_start + b * BATCH, BATCH);
            }
        }
        sys.settle();
        let frames = (spec.sessions * SEGMENT_FRAMES) as u64;
        let fps = frames as f64 / t0.elapsed().as_secs_f64();
        let placed = place(
            sys,
            seg_start,
            per_session,
            &submit_ns,
            &mut out.observed,
            &mut out.unplaced,
        );
        out.fps.push(fps);
        out.lat_us
            .push(placed.into_iter().map(|(_, l)| l).collect());
        out.frames += frames;
        out.end += SEGMENT_FRAMES;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.blocked_share = sys.blocked_ns as f64 / 1e9 / out.wall_s;
    out
}

/// Open loop: every session is a 30 Hz sensor sending 1-frame messages
/// on a fixed schedule, staggered evenly across the frame period. The
/// generator busy-polls for detections between due times, never skips
/// a send, and times each detection from when its frame was *due*, so a
/// stall (its own or the system's) counts against every message it
/// delays.
pub fn run_paced(sys: &mut System<'_>, seconds: f64) -> Outcome {
    let spec = sys.spec;
    let per_session = (seconds * SENSOR_HZ).round() as usize;
    let total = per_session * spec.sessions;
    let slot_ns = 1e9 / SENSOR_HZ / spec.sessions as f64;
    let mut due_ns = vec![0u64; total];
    let mut gen_late_us = Vec::with_capacity(total);
    let start_ns = sys.collector.now_ns();
    let started = Instant::now();
    for i in 0..total {
        let due = start_ns + (i as f64 * slot_ns) as u64;
        let mut now = sys.collector.now_ns();
        while now < due {
            sys.poll_clients(0..CONNECTIONS);
            now = sys.collector.now_ns();
        }
        gen_late_us.push((now - due) as f64 / 1e3);
        let (s, k) = (i % spec.sessions, i / spec.sessions);
        due_ns[s * per_session + k] = due;
        sys.send(s, MEASURE_START + k, 1);
    }
    let backlog_end = sys.backlog();
    sys.settle();
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = Outcome {
        fps: vec![total as f64 / wall_s],
        lat_us: vec![Vec::new(); PACED_GROUPS],
        frames: total as u64,
        end: MEASURE_START + per_session,
        observed: vec![Vec::new(); spec.sessions],
        unplaced: 0,
        wall_s,
        blocked_share: sys.blocked_ns as f64 / 1e9 / wall_s,
        gen_late_us,
        backlog_end,
    };
    let placed = place(
        sys,
        MEASURE_START,
        per_session,
        &due_ns,
        &mut out.observed,
        &mut out.unplaced,
    );
    for (k, l) in placed {
        out.lat_us[k * PACED_GROUPS / per_session].push(l);
    }
    out
}
