//! Per-shard and aggregated server metrics.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gesto_telemetry::{Counter, Gauge, Histogram, Registry};

/// Percentiles over a shard's batch-push latencies (enqueue → fully
/// processed), in microseconds.
///
/// Backed by the shared power-of-two histogram, so the percentiles are
/// bucket ceilings (the next power of two at or above the true value)
/// rather than exact order statistics, and recording is one relaxed
/// atomic add.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Latencies recorded (all-time, not a sliding window).
    pub samples: usize,
    /// Median latency (power-of-two bucket ceiling).
    pub p50_us: u64,
    /// 99th-percentile latency (power-of-two bucket ceiling).
    pub p99_us: u64,
    /// Worst latency observed (exact).
    pub max_us: u64,
}

impl LatencySummary {
    pub(crate) fn from_histogram(h: &Histogram) -> Self {
        LatencySummary {
            samples: h.count() as usize,
            p50_us: h.quantile(0.50),
            p99_us: h.quantile(0.99),
            max_us: h.max(),
        }
    }
}

/// Instruments of one shard, shared between the worker thread, the
/// producers that admit its batches and the server front-end. Each is
/// declared here, once, with its exported name, help and `shard`
/// label; the hot paths update it and [`Self::snapshot`] reads it.
pub(crate) struct ShardMetrics {
    pub(crate) frames_in: Arc<Counter>,
    pub(crate) batches_in: Arc<Counter>,
    pub(crate) detections: Arc<Counter>,
    pub(crate) shed_frames: Arc<Counter>,
    pub(crate) shed_batches: Arc<Counter>,
    pub(crate) push_errors: Arc<Counter>,
    pub(crate) sink_panics: Arc<Counter>,
    pub(crate) columnar_batches: Arc<Counter>,
    pub(crate) block_skips: Arc<Counter>,
    pub(crate) sessions: Arc<Gauge>,
    pub(crate) retiring: Arc<Gauge>,
    /// Written once at worker start-up; `-1` until then, and for good
    /// when the worker is unpinned.
    pub(crate) pinned_core: Arc<Gauge>,
    /// Waits on the detection-listener list (the only shared structure
    /// the worker takes a lock on per batch).
    pub(crate) contention: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pub(crate) sessions_reset: Arc<Counter>,
    pub(crate) quarantined_frames: Arc<Counter>,
    /// Admission drops: not registered, because `/metrics` exports them
    /// only summed over shards (`gesto_admission_rejected_total{reason}`,
    /// computed by the overload collector) and the frame counts only
    /// through [`ServerMetrics::admission_dropped_frames`].
    pub(crate) stale_batches: Counter,
    pub(crate) stale_frames: Counter,
    /// Counted on the producer side, at push/offer.
    pub(crate) mem_rejected_batches: Counter,
    /// Maintained incrementally by the worker, by delta per batch.
    pub(crate) state_bytes: Arc<Gauge>,
    pub(crate) batch_buffer_bytes: Arc<Gauge>,
    pub(crate) producer_wakeups: Arc<Counter>,
    pub(crate) gate_backstops: Arc<Counter>,
    pub(crate) latency: Arc<Histogram>,
}

impl ShardMetrics {
    /// Registers shard `shard`'s instruments in `registry`.
    pub(crate) fn new(registry: &Registry, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels = [("shard", shard.as_str())];
        let counter = |name: &str, help: &str| registry.instrument(name, help, &labels);
        let gauge = |name: &str, help: &str| registry.instrument(name, help, &labels);
        let pinned_core: Arc<Gauge> = gauge(
            "gesto_shard_pinned_core",
            "CPU core the shard worker is pinned to (-1 = unpinned)",
        );
        pinned_core.set(-1);
        ShardMetrics {
            frames_in: counter("gesto_shard_frames_total", "Frames processed by the shard"),
            batches_in: counter(
                "gesto_shard_batches_total",
                "Batches processed by the shard",
            ),
            detections: counter(
                "gesto_shard_detections_total",
                "Detections produced by the shard",
            ),
            shed_frames: counter(
                "gesto_shard_shed_frames_total",
                "Frames lost to the drop-oldest policy",
            ),
            shed_batches: counter(
                "gesto_shard_shed_batches_total",
                "Batches lost to the drop-oldest policy",
            ),
            push_errors: counter(
                "gesto_shard_push_errors_total",
                "Tuples that failed predicate evaluation",
            ),
            sink_panics: counter(
                "gesto_shard_sink_panics_total",
                "Detection-sink invocations that panicked (caught)",
            ),
            columnar_batches: counter(
                "gesto_shard_columnar_batches_total",
                "Batches that took the columnar (block + kernel pre-pass) path",
            ),
            block_skips: counter(
                "gesto_shard_block_skips_total",
                "Batches that skipped block building (under columnar_min_batch)",
            ),
            sessions: gauge("gesto_shard_sessions", "Sessions resident on the shard"),
            retiring: gauge(
                "gesto_shard_plan_instances_retiring",
                "Replaced plan versions still draining in-flight runs \
                 on the shard (0 on the steady state)",
            ),
            pinned_core,
            contention: counter(
                "gesto_shard_contention_total",
                "Times the shard worker had to wait on a shared structure \
                 (0 on the steady state)",
            ),
            panics: counter(
                "gesto_shard_panics_total",
                "Batch-processing panics caught by shard supervision",
            ),
            sessions_reset: counter(
                "gesto_sessions_reset_total",
                "Sessions whose NFA/view state was reset after their batch \
                 was quarantined by supervision",
            ),
            quarantined_frames: counter(
                "gesto_shard_quarantined_frames_total",
                "Frames written off inside quarantined (panic-poisoned) batches",
            ),
            stale_batches: Counter::new(),
            stale_frames: Counter::new(),
            mem_rejected_batches: Counter::new(),
            state_bytes: gauge(
                "gesto_shard_state_bytes",
                "Approximate resident NFA run-state bytes across the shard's \
                 sessions (capacity-based lower bound; kept rows count as handles)",
            ),
            batch_buffer_bytes: gauge(
                "gesto_shard_batch_buffer_bytes",
                "Heap bytes of the one set of batch buffers (view rows and payloads, \
                 frame offsets, blocks) the shard worker lends to each session's batch \
                 (capacity-based, tuples excluded; per shard, not per session)",
            ),
            producer_wakeups: counter(
                "gesto_shard_producer_wakeups_total",
                "Times the worker woke parked push_batch producers (queue \
                 drained to the low-water mark)",
            ),
            gate_backstops: counter(
                "gesto_shard_gate_backstop_total",
                "Parked producers released by the 50 ms timed wait instead of a \
                 wake-up, with room in the queue (0 on a healthy server)",
            ),
            latency: registry.instrument(
                "gesto_shard_push_latency_us",
                "Batch latency from enqueue to fully processed, in microseconds",
                &labels,
            ),
        }
    }

    /// `queue_depth` is read from the shard's queue gate (the one live
    /// counter backpressure also uses) and passed in by the server.
    pub(crate) fn snapshot(&self, shard: usize, queue_depth: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            frames_in: self.frames_in.get(),
            batches_in: self.batches_in.get(),
            detections: self.detections.get(),
            shed_frames: self.shed_frames.get(),
            shed_batches: self.shed_batches.get(),
            push_errors: self.push_errors.get(),
            sink_panics: self.sink_panics.get(),
            columnar_batches: self.columnar_batches.get(),
            block_skips: self.block_skips.get(),
            queue_depth,
            sessions: self.sessions.get() as usize,
            retiring: self.retiring.get() as usize,
            pinned_core: self.pinned_core.get(),
            contention: self.contention.get(),
            panics: self.panics.get(),
            sessions_reset: self.sessions_reset.get(),
            quarantined_frames: self.quarantined_frames.get(),
            stale_batches: self.stale_batches.get(),
            stale_frames: self.stale_frames.get(),
            mem_rejected_batches: self.mem_rejected_batches.get(),
            state_bytes: self.state_bytes.get().max(0) as u64,
            batch_buffer_bytes: self.batch_buffer_bytes.get() as u64,
            producer_wakeups: self.producer_wakeups.get(),
            gate_backstops: self.gate_backstops.get(),
            latency: LatencySummary::from_histogram(&self.latency),
        }
    }
}

/// Point-in-time counters of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Frames processed.
    pub frames_in: u64,
    /// Batches processed.
    pub batches_in: u64,
    /// Detections produced.
    pub detections: u64,
    /// Frames lost to the drop-oldest policy.
    pub shed_frames: u64,
    /// Batches lost to the drop-oldest policy.
    pub shed_batches: u64,
    /// Tuples that failed predicate evaluation.
    pub push_errors: u64,
    /// Detection-sink invocations that panicked (caught; the shard
    /// keeps running).
    pub sink_panics: u64,
    /// Batches that took the columnar (block + kernel pre-pass) path.
    pub columnar_batches: u64,
    /// Batches that skipped block building (under `columnar_min_batch`).
    pub block_skips: u64,
    /// Batches currently queued.
    pub queue_depth: usize,
    /// Sessions resident on this shard.
    pub sessions: usize,
    /// Retiring plan instances (replaced versions still draining) on
    /// this shard.
    pub retiring: usize,
    /// CPU core the worker is pinned to (`-1` = unpinned).
    pub pinned_core: i64,
    /// Times the worker had to wait on a shared structure (0 on the
    /// steady state; see `gesto_shard_contention_total`).
    pub contention: u64,
    /// Data-path panics caught by the worker.
    pub panics: u64,
    /// Sessions whose state was reset after a quarantined batch.
    pub sessions_reset: u64,
    /// Frames lost inside quarantined (poison) batches.
    pub quarantined_frames: u64,
    /// Batches dropped for exceeding `max_batch_age_ms` in the queue.
    pub stale_batches: u64,
    /// Frames inside those stale batches.
    pub stale_frames: u64,
    /// Batches refused because the shard's memory budget was exhausted.
    pub mem_rejected_batches: u64,
    /// Estimated resident bytes of the shard's session NFA state.
    pub state_bytes: u64,
    /// Heap bytes of the batch buffers the worker lends to each
    /// session's batch; per shard, not per session.
    pub batch_buffer_bytes: u64,
    /// Times the worker woke parked `push_batch` producers.
    pub producer_wakeups: u64,
    /// Parked producers released by the timed backstop instead of a
    /// wake-up (0 on a healthy server).
    pub gate_backstops: u64,
    /// Push-latency percentiles.
    pub latency: LatencySummary,
}

/// The server's overload state machine, computed from live shard
/// gauges (worst shard wins): queue fill and — when a
/// [`crate::ServerConfig::shard_memory_budget`] is set — memory fill.
///
/// `Healthy` → `Shedding` at a fill of 0.75, `Shedding` → `Rejecting`
/// at 1.0 (a full queue or budget); the machine walks back down as the
/// shards drain. Surfaced through
/// [`crate::ServerHandle::overload_state`], `GET /healthz` (503 when
/// rejecting) and the `gesto_overload_state` gauge; while `Rejecting`,
/// the network edge refuses **new** session binds (existing sessions
/// keep streaming under their backpressure policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadState {
    /// All shards comfortably below the shedding threshold.
    #[default]
    Healthy,
    /// At least one shard is past the shedding threshold: latency is
    /// degrading and (under drop-oldest) stale work is being shed.
    Shedding,
    /// At least one shard is at or past the rejecting threshold: new
    /// sessions are refused at the edge until load drains.
    Rejecting,
}

impl OverloadState {
    /// Stable lowercase name (`healthy` / `shedding` / `rejecting`).
    pub fn as_str(self) -> &'static str {
        match self {
            OverloadState::Healthy => "healthy",
            OverloadState::Shedding => "shedding",
            OverloadState::Rejecting => "rejecting",
        }
    }

    /// Numeric encoding exported as the `gesto_overload_state` gauge
    /// (0 = healthy, 1 = shedding, 2 = rejecting).
    pub fn code(self) -> u8 {
        match self {
            OverloadState::Healthy => 0,
            OverloadState::Shedding => 1,
            OverloadState::Rejecting => 2,
        }
    }
}

impl std::fmt::Display for OverloadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Worst-shard fill at which the overload state machine leaves
/// `Healthy` for `Shedding`.
const SHED_FILL: f64 = 0.75;

/// Worst-shard fill at which it enters `Rejecting`: a full queue (or
/// memory budget).
const REJECT_FILL: f64 = 1.0;

/// What the overload state machine divides by (derived from the server
/// config).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OverloadPolicy {
    pub queue_capacity: usize,
    pub memory_budget: usize,
}

impl OverloadPolicy {
    pub(crate) fn from_config(config: &crate::ServerConfig) -> Self {
        OverloadPolicy {
            queue_capacity: config.effective_queue_capacity(),
            memory_budget: config.shard_memory_budget,
        }
    }

    /// Worst fill ratio of one shard: queue depth over capacity, and
    /// (with a budget) memory use over budget.
    pub(crate) fn fill(&self, metrics: &ShardMetrics, gate: &crate::shard::QueueGate) -> f64 {
        let queue = gate.depth.load(Ordering::Acquire) as f64 / self.queue_capacity as f64;
        if self.memory_budget == 0 {
            return queue;
        }
        let mem_used = gate.queued_bytes.load(Ordering::Acquire) as f64
            + metrics.state_bytes.get().max(0) as f64;
        queue.max(mem_used / self.memory_budget as f64)
    }

    /// Folds per-shard fills into the machine's state (worst shard
    /// wins).
    pub(crate) fn classify(&self, worst_fill: f64) -> OverloadState {
        if worst_fill >= REJECT_FILL {
            OverloadState::Rejecting
        } else if worst_fill >= SHED_FILL {
            OverloadState::Shedding
        } else {
            OverloadState::Healthy
        }
    }
}

/// Aggregated view over all shards.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Detections per gesture, merged across shards.
    pub per_gesture: BTreeMap<String, u64>,
    /// Plans compiled *by this server* (never per session — the
    /// compile-once invariant). Plans moved in pre-compiled via
    /// `deploy_plan` (e.g. from `GestureSystem::into_server`) are not
    /// counted; use `deployed()` for the live gesture count.
    pub plans_compiled: u64,
}

impl ServerMetrics {
    /// Total frames processed across shards.
    pub fn frames_in(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_in).sum()
    }

    /// Total detections across shards.
    pub fn detections(&self) -> u64 {
        self.shards.iter().map(|s| s.detections).sum()
    }

    /// Total frames shed across shards.
    pub fn shed_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.shed_frames).sum()
    }

    /// Total live sessions across shards.
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(|s| s.sessions).sum()
    }

    /// Total queued batches across shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Total shard-worker contention events (waits on shared structures)
    /// across shards. 0 on the steady state.
    pub fn contention(&self) -> u64 {
        self.shards.iter().map(|s| s.contention).sum()
    }

    /// Total data-path panics caught by shard workers.
    pub fn panics(&self) -> u64 {
        self.shards.iter().map(|s| s.panics).sum()
    }

    /// Total sessions whose state was reset after a quarantined batch.
    pub fn sessions_reset(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions_reset).sum()
    }

    /// Total frames lost inside quarantined (poison) batches.
    pub fn quarantined_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_frames).sum()
    }

    /// Total frames dropped by admission control on the worker — the
    /// stale ones — not counting frames refused before enqueue (memory
    /// budget, which hands the frames back to the caller).
    pub fn admission_dropped_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.stale_frames).sum()
    }

    /// Total batches refused by the shard memory budget.
    pub fn mem_rejected_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.mem_rejected_batches).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_bucket_ceilings() {
        let h = Histogram::new();
        for us in 1..=100u64 {
            h.record(us);
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.samples, 100);
        // 1..=100 µs: the median (50) lands in bucket [32,64) → 64;
        // p99 (99) lands in [64,128) → 128; max is exact.
        assert_eq!(s.p50_us, 64);
        assert_eq!(s.p99_us, 128);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn latency_has_no_window() {
        let h = Histogram::new();
        for us in 0..2048u64 {
            h.record(us);
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.samples, 2048);
        assert_eq!(s.max_us, 2047);
    }

    #[test]
    fn overload_thresholds_are_three_quarters_and_full() {
        let policy = OverloadPolicy::from_config(&crate::ServerConfig::new());
        let states = [0.74, 0.75, 0.99, 1.0].map(|fill| policy.classify(fill));
        use OverloadState::{Healthy, Rejecting, Shedding};
        assert_eq!(states, [Healthy, Shedding, Shedding, Rejecting]);
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(
            LatencySummary::from_histogram(&Histogram::new()),
            LatencySummary::default()
        );
    }
}
