//! Adversarial chaos scenario library for the self-healing data plane.
//!
//! Each **persona** is a hostile or degenerate client population run
//! against a live server — through the in-process `push_batch` path
//! and/or over real TCP through the GSW1 edge — with hard assertions on
//! the robustness invariants (`docs/ARCHITECTURE.md` §9):
//!
//! - **conservation**: every frame a producer handed over lands in
//!   exactly one bucket —
//!   `sent = frames_in + shed + stale + quota + quarantined`;
//! - **exactly-once**: under the lossless (`Block`) policy, detections
//!   equal an uninjected reference run, per session;
//! - **bounded recovery**: an injected worker panic is survived with
//!   one counted session reset within the deadline, the process
//!   serving and ready throughout.
//!
//! The library is consumed by the `exp_chaos` experiment binary (full
//! sweep + overhead A/B) and by CI's chaos smoke step (the same sweep,
//! short duration).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::net::{NetClient, NetConfig, NetServer};
use gesto_serve::{failpoint, BackpressurePolicy, Server, ServerConfig, ServerMetrics, SessionId};

/// Every persona in the library, in canonical order.
pub const PERSONAS: [&str; 6] = [
    "bursty",
    "high_null",
    "never_matching",
    "deploy_churn",
    "slow_consumer",
    "panic_injection",
];

/// How a persona reaches the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosDriver {
    /// Direct `ServerHandle::push_batch` on producer threads.
    InProcess,
    /// A real `NetClient` over TCP through the GSW1 edge.
    Wire,
}

impl ChaosDriver {
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosDriver::InProcess => "in_process",
            ChaosDriver::Wire => "wire",
        }
    }
}

/// The drivers a persona supports (`slow_consumer` is wire-only: its
/// adversary is the connection itself).
pub fn drivers_for(persona: &str) -> &'static [ChaosDriver] {
    match persona {
        "slow_consumer" => &[ChaosDriver::Wire],
        _ => &[ChaosDriver::InProcess, ChaosDriver::Wire],
    }
}

/// Workload size knobs (`smoke` for CI, `full` for the committed
/// report).
#[derive(Clone, Copy)]
pub struct ChaosScale {
    /// Frames per session, before persona-specific inflation.
    pub frames: usize,
    /// Wire batch / in-process push granularity.
    pub batch: usize,
}

impl ChaosScale {
    pub fn smoke() -> Self {
        ChaosScale {
            frames: 300,
            batch: 33,
        }
    }
    pub fn full() -> Self {
        ChaosScale {
            frames: 1500,
            batch: 33,
        }
    }
}

/// The measured outcome of one persona × driver run. Constructed only
/// after every invariant assert held — reaching a value means the
/// scenario passed.
pub struct ChaosOutcome {
    pub persona: &'static str,
    pub driver: &'static str,
    pub sessions: usize,
    pub frames_sent: u64,
    pub frames_in: u64,
    pub shed_frames: u64,
    pub stale_frames: u64,
    pub quota_frames: u64,
    pub quarantined_frames: u64,
    pub detections: u64,
    /// Reference detections under the exactly-once contract (`None`
    /// for lossy scenarios, where only conservation is asserted).
    pub expected_detections: Option<u64>,
    /// Injected panic → panic counted and the server ready.
    pub recovery_ms: Option<f64>,
}

impl ChaosOutcome {
    /// The conservation identity every scenario must satisfy.
    pub fn conserved(&self) -> bool {
        self.frames_in
            + self.shed_frames
            + self.stale_frames
            + self.quota_frames
            + self.quarantined_frames
            == self.frames_sent
    }
}

// ----- workloads ------------------------------------------------------

/// Repeated clean swipe performances, timestamps strictly increasing.
pub fn swipe_workload(frames: usize, seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
    let mut out = Vec::with_capacity(frames + 64);
    while out.len() < frames {
        out.extend(p.render_padded(&gestures::swipe_right(), 200, 400));
    }
    out.truncate(frames);
    out
}

/// A high-null stream: every real frame followed by `nulls` empty
/// (all-joints-invalid) frames with strictly increasing timestamps —
/// a sensor dropping most of its skeleton fixes.
fn null_heavy_workload(frames: usize, seed: u64, nulls: i64) -> Vec<SkeletonFrame> {
    let base = swipe_workload(frames, seed);
    let mut out = Vec::with_capacity(base.len() * (nulls as usize + 1));
    for f in base {
        let (ts, player) = (f.ts, f.player);
        out.push(f);
        for k in 1..=nulls {
            // Kinect frames arrive ~33 ms apart; nulls fit in between.
            out.push(SkeletonFrame::empty(ts + k, player));
        }
    }
    out
}

/// A pathological never-matching stream: one frozen pose forever. Runs
/// seed, never complete, and must be aged out rather than accumulated.
fn frozen_workload(frames: usize, seed: u64) -> Vec<SkeletonFrame> {
    let base = swipe_workload(64, seed);
    let pose = base[0].clone();
    (0..frames as i64)
        .map(|i| {
            let mut f = pose.clone();
            f.ts = pose.ts + i * 33;
            f
        })
        .collect()
}

fn teach_swipe(server: &Server) {
    let samples: Vec<Vec<SkeletonFrame>> = (0..3)
        .map(|seed| {
            let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
            p.render(&gestures::swipe_right())
        })
        .collect();
    server.teach("swipe_right", &samples).expect("teach");
}

// ----- the rig --------------------------------------------------------

/// One live server plus the driver-specific way in and out.
struct Rig {
    server: Server,
    net: Option<NetServer>,
    client: Option<NetClient>,
    /// Per-session detection counts (in-process sink; the wire driver
    /// counts from the client's detection stream at `finish`).
    counts: Arc<Mutex<HashMap<u64, u64>>>,
}

impl Rig {
    fn new(config: ServerConfig, driver: ChaosDriver, net_config: NetConfig) -> Rig {
        let server = Server::start(config);
        teach_swipe(&server);
        let counts = Arc::new(Mutex::new(HashMap::new()));
        let (net, client) = match driver {
            ChaosDriver::InProcess => {
                let sink = counts.clone();
                server.on_detection(Arc::new(move |sid, _d| {
                    *sink.lock().unwrap().entry(sid.0).or_insert(0) += 1;
                }));
                (None, None)
            }
            ChaosDriver::Wire => {
                let net = NetServer::start(server.handle(), net_config).expect("edge");
                let client = NetClient::connect(net.local_addr()).expect("connect");
                (Some(net), Some(client))
            }
        };
        Rig {
            server,
            net,
            client,
            counts,
        }
    }

    fn send(&mut self, session: u64, frames: &[SkeletonFrame]) {
        match &mut self.client {
            Some(c) => c.send_batch(session, frames).expect("wire send"),
            None => self
                .server
                .push_batch(SessionId(session), frames.to_vec())
                .expect("push"),
        }
    }

    /// Drains the server (and the wire client), returning final server
    /// metrics and per-session detection counts.
    fn finish(mut self) -> (ServerMetrics, HashMap<u64, u64>) {
        if let Some(client) = self.client.take() {
            for d in client.bye().expect("bye") {
                *self.counts.lock().unwrap().entry(d.session).or_insert(0) += 1;
            }
        }
        self.server.drain().expect("drain");
        let metrics = self.server.metrics();
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        self.server.shutdown();
        (metrics, self.counts.lock().unwrap().clone())
    }
}

/// Uninjected reference: the same per-session workloads through a
/// plain lossless 1-shard in-process server; returns per-session
/// detection counts — the exactly-once yardstick.
fn reference_counts(workloads: &[(u64, Vec<SkeletonFrame>)], batch: usize) -> HashMap<u64, u64> {
    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(1)
            .with_backpressure(BackpressurePolicy::Block),
        ChaosDriver::InProcess,
        NetConfig::new(),
    );
    for (sid, frames) in workloads {
        for chunk in frames.chunks(batch) {
            rig.send(*sid, chunk);
        }
    }
    rig.finish().1
}

fn sum_counts(counts: &HashMap<u64, u64>) -> u64 {
    counts.values().sum()
}

#[allow(clippy::too_many_arguments)] // one call site per persona; a builder would only add noise
fn outcome(
    persona: &'static str,
    driver: ChaosDriver,
    sessions: usize,
    frames_sent: u64,
    m: &ServerMetrics,
    detections: u64,
    expected: Option<u64>,
    recovery_ms: Option<f64>,
) -> ChaosOutcome {
    let out = ChaosOutcome {
        persona,
        driver: driver.as_str(),
        sessions,
        frames_sent,
        frames_in: m.frames_in(),
        shed_frames: m.shed_frames(),
        stale_frames: m.shards.iter().map(|s| s.stale_frames).sum(),
        quota_frames: m.shards.iter().map(|s| s.quota_frames).sum(),
        quarantined_frames: m.quarantined_frames(),
        detections,
        expected_detections: expected,
        recovery_ms,
    };
    assert!(
        out.conserved(),
        "{persona}/{}: conservation broken: sent {} != in {} + shed {} + stale {} + quota {} + quarantined {}",
        out.driver,
        out.frames_sent,
        out.frames_in,
        out.shed_frames,
        out.stale_frames,
        out.quota_frames,
        out.quarantined_frames
    );
    if let Some(exp) = expected {
        assert_eq!(
            detections, exp,
            "{persona}/{}: exactly-once broken ({} detections, expected {})",
            out.driver, detections, exp
        );
    }
    out
}

// ----- personas -------------------------------------------------------

/// Runs one persona under one driver; panics if any invariant breaks.
pub fn run_persona(persona: &str, driver: ChaosDriver, scale: ChaosScale) -> ChaosOutcome {
    match persona {
        "bursty" => bursty(driver, scale),
        "high_null" => high_null(driver, scale),
        "never_matching" => never_matching(driver, scale),
        "deploy_churn" => deploy_churn(driver, scale),
        "slow_consumer" => slow_consumer(scale),
        "panic_injection" => panic_injection(driver, scale),
        other => panic!("unknown persona '{other}'"),
    }
}

/// Bursty arrivals against a tiny queue under `DropOldest` with a
/// staleness deadline and a per-session frame quota: all three shedding
/// paths (oldest-batch, stale-batch, quota) may fire; conservation must
/// hold exactly whatever the mix.
fn bursty(driver: ChaosDriver, scale: ChaosScale) -> ChaosOutcome {
    let sessions = 4u64;
    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(1)
            .with_queue_capacity(4)
            .with_backpressure(BackpressurePolicy::DropOldest)
            .with_max_batch_age_ms(20)
            .with_session_frame_quota(2_000),
        driver,
        NetConfig::new(),
    );
    let workloads: Vec<(u64, Vec<SkeletonFrame>)> = (0..sessions)
        .map(|s| (s, swipe_workload(scale.frames, 100 + s)))
        .collect();
    let frames_sent: u64 = workloads.iter().map(|(_, w)| w.len() as u64).sum();
    // Tight bursts, all sessions interleaved, no pacing: the queue is
    // permanently over capacity.
    let mut offset = 0;
    loop {
        let mut pushed = false;
        for (sid, frames) in &workloads {
            if offset < frames.len() {
                let end = (offset + scale.batch).min(frames.len());
                rig.send(*sid, &frames[offset..end]);
                pushed = true;
            }
        }
        if !pushed {
            break;
        }
        offset += scale.batch;
    }
    let (m, counts) = rig.finish();
    outcome(
        "bursty",
        driver,
        sessions as usize,
        frames_sent,
        &m,
        sum_counts(&counts),
        None, // lossy by design: conservation, not exactly-once
        None,
    )
}

/// Streams that are mostly empty frames (a sensor losing skeleton
/// fixes): the pipeline must not lose, duplicate or misattribute the
/// real detections buried in the nulls.
fn high_null(driver: ChaosDriver, scale: ChaosScale) -> ChaosOutcome {
    let sessions = 2u64;
    let workloads: Vec<(u64, Vec<SkeletonFrame>)> = (0..sessions)
        .map(|s| (s, null_heavy_workload(scale.frames / 2, 300 + s, 3)))
        .collect();
    let expected = sum_counts(&reference_counts(&workloads, scale.batch));
    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(2)
            .with_backpressure(BackpressurePolicy::Block),
        driver,
        NetConfig::new(),
    );
    let frames_sent: u64 = workloads.iter().map(|(_, w)| w.len() as u64).sum();
    for (sid, frames) in &workloads {
        for chunk in frames.chunks(scale.batch) {
            rig.send(*sid, chunk);
        }
    }
    let (m, counts) = rig.finish();
    assert!(
        expected > 0,
        "high_null workload must embed real detections"
    );
    outcome(
        "high_null",
        driver,
        sessions as usize,
        frames_sent,
        &m,
        sum_counts(&counts),
        Some(expected),
        None,
    )
}

/// Pathological sessions that never match: partial runs seed forever
/// and must be aged out — resident NFA state has to stay bounded, and
/// nothing may be detected.
fn never_matching(driver: ChaosDriver, scale: ChaosScale) -> ChaosOutcome {
    let sessions = 2u64;
    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(1)
            .with_backpressure(BackpressurePolicy::Block),
        driver,
        NetConfig::new(),
    );
    let workloads: Vec<(u64, Vec<SkeletonFrame>)> = (0..sessions)
        .map(|s| (s, frozen_workload(scale.frames, 400 + s)))
        .collect();
    let frames_sent: u64 = workloads.iter().map(|(_, w)| w.len() as u64).sum();
    for (sid, frames) in &workloads {
        for chunk in frames.chunks(scale.batch) {
            rig.send(*sid, chunk);
        }
    }
    // Bounded state: the resident run-slab gauge must not grow with the
    // stream (generous absolute cap — the point is "not O(frames)").
    let state_bytes: u64 = rig
        .server
        .metrics()
        .shards
        .iter()
        .map(|s| s.state_bytes)
        .sum();
    assert!(
        state_bytes < 32 * 1024 * 1024,
        "never-matching sessions accumulated {state_bytes} bytes of NFA state"
    );
    let (m, counts) = rig.finish();
    outcome(
        "never_matching",
        driver,
        sessions as usize,
        frames_sent,
        &m,
        sum_counts(&counts),
        Some(0), // a frozen pose must never detect
        None,
    )
}

/// Deploy churn under load: a second (never-matching) query is
/// deployed and undeployed continuously while sessions stream; the
/// stable gesture's detections must be exactly those of a churn-free
/// run, and no frame may be lost.
fn deploy_churn(driver: ChaosDriver, scale: ChaosScale) -> ChaosOutcome {
    let sessions = 4u64;
    let workloads: Vec<(u64, Vec<SkeletonFrame>)> = (0..sessions)
        .map(|s| (s, swipe_workload(scale.frames, 500 + s)))
        .collect();
    let expected = sum_counts(&reference_counts(&workloads, scale.batch));
    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(2)
            .with_backpressure(BackpressurePolicy::Block),
        driver,
        NetConfig::new(),
    );
    let frames_sent: u64 = workloads.iter().map(|(_, w)| w.len() as u64).sum();
    let handle = rig.server.handle();
    // Deterministic churn: one deploy/undeploy cycle of a never-matching
    // query between every round of batches — each cycle rebroadcasts a
    // new plan version into workers whose queues are mid-stream.
    let mut cycles = 0u64;
    let mut offset = 0;
    while offset < scale.frames {
        for (sid, frames) in &workloads {
            let end = (offset + scale.batch).min(frames.len());
            rig.send(*sid, &frames[offset..end]);
        }
        handle
            .deploy_text(r#"SELECT "churn" MATCHING kinect(head_y > 1000000000.0);"#)
            .expect("churn deploy");
        handle.undeploy("churn").expect("churn undeploy");
        cycles += 1;
        offset += scale.batch;
    }
    assert!(cycles > 0, "deploy churn never cycled");
    let (m, counts) = rig.finish();
    outcome(
        "deploy_churn",
        driver,
        sessions as usize,
        frames_sent,
        &m,
        sum_counts(&counts),
        Some(expected),
        None,
    )
}

/// A slow-reading consumer (wire only): a small credit window forces
/// the client to stall on server backpressure, and detections pile up
/// unread until the end — nothing may be lost on either direction.
fn slow_consumer(scale: ChaosScale) -> ChaosOutcome {
    let workloads: Vec<(u64, Vec<SkeletonFrame>)> = vec![(0, swipe_workload(scale.frames, 600))];
    let expected = sum_counts(&reference_counts(&workloads, scale.batch));
    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(1)
            .with_queue_capacity(2)
            .with_backpressure(BackpressurePolicy::Block),
        ChaosDriver::Wire,
        NetConfig::new().with_initial_credits(64),
    );
    let frames_sent = workloads[0].1.len() as u64;
    for chunk in workloads[0].1.chunks(scale.batch) {
        rig.send(0, chunk);
    }
    let stalls = rig.client.as_ref().map(|c| c.credit_waits()).unwrap_or(0);
    assert!(
        stalls > 0,
        "slow consumer never hit credit backpressure — the scenario did not bite"
    );
    let (m, counts) = rig.finish();
    outcome(
        "slow_consumer",
        ChaosDriver::Wire,
        1,
        frames_sent,
        &m,
        sum_counts(&counts),
        Some(expected),
        None,
    )
}

/// An injected shard-worker panic mid-load: the poisoned batch is
/// quarantined and only its session resets within the deadline, and the
/// bystander sessions' detections are exactly those
/// of an uninjected run.
fn panic_injection(driver: ChaosDriver, scale: ChaosScale) -> ChaosOutcome {
    const POISON_TS: i64 = 777_000_000_000;
    const VICTIM: u64 = 1;
    const RECOVERY_DEADLINE: Duration = Duration::from_secs(5);
    let bystanders = [2u64, 3u64];
    let halves: Vec<(u64, Vec<SkeletonFrame>, Vec<SkeletonFrame>)> = bystanders
        .iter()
        .map(|&s| {
            let w = swipe_workload(scale.frames, 700 + s);
            let mid = w.len() / 2;
            (s, w[..mid].to_vec(), w[mid..].to_vec())
        })
        .collect();
    let reference: Vec<(u64, Vec<SkeletonFrame>)> = halves
        .iter()
        .map(|(s, a, b)| {
            let mut w = a.clone();
            w.extend(b.iter().cloned());
            (*s, w)
        })
        .collect();
    let expected_by_session = reference_counts(&reference, scale.batch);

    let mut rig = Rig::new(
        ServerConfig::new()
            .with_shards(1)
            .with_backpressure(BackpressurePolicy::Block),
        driver,
        NetConfig::new(),
    );
    for (sid, first, _) in &halves {
        for chunk in first.chunks(scale.batch) {
            rig.send(*sid, chunk);
        }
    }

    let trips_before = failpoint::poison_trips();
    let panics_before = rig.server.metrics().panics();
    failpoint::arm_poison_ts(POISON_TS);
    let mut poison = swipe_workload(8, 999);
    poison[0].ts = POISON_TS;
    let injected_at = Instant::now();
    rig.send(VICTIM, &poison);

    // Bounded recovery: the panic must be caught and counted, with the
    // server ready, within the deadline.
    let handle = rig.server.handle();
    loop {
        let m = rig.server.metrics();
        if m.panics() == panics_before + 1 && handle.is_ready() {
            break;
        }
        assert!(
            injected_at.elapsed() < RECOVERY_DEADLINE,
            "worker did not recover within {RECOVERY_DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let recovery_ms = injected_at.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        failpoint::poison_trips(),
        trips_before + 1,
        "failpoint must fire exactly once"
    );

    for (sid, _, second) in &halves {
        for chunk in second.chunks(scale.batch) {
            rig.send(*sid, chunk);
        }
    }
    let frames_sent: u64 = halves
        .iter()
        .map(|(_, a, b)| (a.len() + b.len()) as u64)
        .sum::<u64>()
        + poison.len() as u64;
    let (m, counts) = rig.finish();

    assert_eq!(m.panics(), 1, "exactly one injected panic");
    assert_eq!(m.sessions_reset(), 1, "only the poisoned session resets");
    assert_eq!(m.quarantined_frames(), poison.len() as u64);
    for (sid, _, _) in &halves {
        assert_eq!(
            counts.get(sid),
            expected_by_session.get(sid),
            "bystander session {sid} detections diverged from the uninjected run"
        );
    }
    let bystander_detections: u64 = counts
        .iter()
        .filter(|(s, _)| **s != VICTIM)
        .map(|(_, n)| n)
        .sum();
    outcome(
        "panic_injection",
        driver,
        bystanders.len() + 1,
        frames_sent,
        &m,
        bystander_detections,
        Some(sum_counts(&expected_by_session)),
        Some(recovery_ms),
    )
}

// ----- overhead A/B ---------------------------------------------------

/// The admission overhead report: the same steady-state workload
/// through a server without admission checks and one with the quota
/// bucket and memory-budget checks active but never tripping.
pub struct OverheadReport {
    pub frames: usize,
    pub trials: usize,
    /// Best-of-trials frames/sec, admission off.
    pub base_fps: f64,
    /// Best-of-trials frames/sec, idle admission on.
    pub hardened_fps: f64,
    /// `(base - hardened) / base`, percent; negative means noise.
    pub overhead_pct: f64,
}

/// Measures the steady-state cost of the admission checks (configured
/// but never shedding). Best-of-N on both legs to suppress scheduler
/// noise.
pub fn overhead_ab(frames: usize, trials: usize) -> OverheadReport {
    let workload = swipe_workload(frames, 7);
    let run_once = |hardened: bool| -> f64 {
        let mut config = ServerConfig::new()
            .with_shards(1)
            .with_queue_capacity(256)
            .with_backpressure(BackpressurePolicy::Block);
        if hardened {
            // Admission active on every batch, shedding on none.
            config = config
                .with_session_frame_quota(u32::MAX)
                .with_shard_memory_budget(usize::MAX >> 1);
        }
        let server = Server::start(config);
        teach_swipe(&server);
        let t0 = Instant::now();
        for chunk in workload.chunks(60) {
            server
                .push_batch(SessionId(0), chunk.to_vec())
                .expect("push");
        }
        server.drain().expect("drain");
        let fps = workload.len() as f64 / t0.elapsed().as_secs_f64();
        server.shutdown();
        fps
    };
    // One warmup pair, then alternate legs so drift hits both equally.
    let _ = run_once(false);
    let _ = run_once(true);
    let (mut base_fps, mut hardened_fps) = (0.0f64, 0.0f64);
    for _ in 0..trials {
        base_fps = base_fps.max(run_once(false));
        hardened_fps = hardened_fps.max(run_once(true));
    }
    OverheadReport {
        frames,
        trials,
        base_fps,
        hardened_fps,
        overhead_pct: (base_fps - hardened_fps) / base_fps * 100.0,
    }
}
