//! Per-shard and aggregated server metrics.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use gesto_telemetry::Histogram;
use parking_lot::Mutex;

/// Percentiles over a shard's batch-push latencies (enqueue → fully
/// processed), in microseconds.
///
/// Backed by the shared power-of-two histogram, so the percentiles are
/// bucket ceilings (the next power of two at or above the true value)
/// rather than exact order statistics — and recording is one relaxed
/// atomic add instead of the old mutex-guarded 1024-entry ring that
/// `summary()` cloned and sorted on every call.
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

/// Live counters of one shard, shared between the worker thread and the
/// server front-end (lock-free on the hot path except the per-gesture
/// map, which is touched per batch, not per frame).
///
/// 128-byte aligned so two shards' metric structs never share a cache
/// line (or a spatial-prefetcher line pair): each worker hammers its own
/// counters every batch, and with core-pinned shards cross-core false
/// sharing here would show up directly in the scale-out curve.
#[repr(align(128))]
pub struct ShardMetrics {
    pub(crate) frames_in: AtomicU64,
    pub(crate) batches_in: AtomicU64,
    pub(crate) detections: AtomicU64,
    pub(crate) shed_frames: AtomicU64,
    pub(crate) shed_batches: AtomicU64,
    pub(crate) push_errors: AtomicU64,
    pub(crate) sink_panics: AtomicU64,
    /// Batches that took the columnar path (block built + kernel
    /// pre-pass).
    pub(crate) columnar_batches: AtomicU64,
    /// Batches that skipped block building (the batch was under
    /// `columnar_min_batch`).
    pub(crate) block_skips: AtomicU64,
    pub(crate) sessions: AtomicUsize,
    /// Retiring plan instances (replaced versions still draining their
    /// in-flight runs) across this shard's sessions. 0 on the steady
    /// state — a persistently non-zero value means a replaced plan's
    /// partial matches never complete or expire.
    pub(crate) retiring: AtomicUsize,
    /// CPU core this shard's worker is pinned to, or `-1` when
    /// unpinned. Written once at worker start-up.
    pub(crate) pinned_core: AtomicI64,
    /// Times the worker found a shared structure (detection-listener
    /// list, per-gesture map) already held and had to wait. Stays 0 on
    /// the steady state — the contention audit's observable face.
    pub(crate) contention: AtomicU64,
    /// Data-path panics caught by the worker (each one quarantined a
    /// batch and reset one session).
    pub(crate) panics: AtomicU64,
    /// Sessions whose NFA/view state was reset because a batch of
    /// theirs was quarantined (`gesto_sessions_reset_total`).
    pub(crate) sessions_reset: AtomicU64,
    /// Frames consumed by quarantined (poison) batches — lost with the
    /// panic, accounted so frame conservation stays exact.
    pub(crate) quarantined_frames: AtomicU64,
    /// Batches dropped before NFA stepping because they sat queued past
    /// `max_batch_age_ms` (drop-oldest policy only).
    pub(crate) stale_batches: AtomicU64,
    pub(crate) stale_frames: AtomicU64,
    /// Batches dropped by the per-session frame-rate quota.
    pub(crate) quota_batches: AtomicU64,
    pub(crate) quota_frames: AtomicU64,
    /// Batches refused at push/offer because the shard's memory budget
    /// was exhausted (counted on the producer side).
    pub(crate) mem_rejected_batches: AtomicU64,
    /// Estimated resident bytes of this shard's session state (NFA run
    /// slabs + event arenas), maintained incrementally by the worker.
    pub(crate) state_bytes: AtomicI64,
    /// Heap bytes of the one set of batch buffers — view outputs, frame
    /// offsets, blocks — the worker lends to each session's batch
    /// (capacity-based; a fixed per-shard cost).
    pub(crate) batch_buffer_bytes: AtomicU64,
    /// Times the worker woke parked `push_batch` producers (at most one
    /// per `queue_capacity / 4` batches while a producer outruns it).
    pub(crate) producer_wakeups: AtomicU64,
    /// Parked producers released by the 50 ms timed wait, not by a
    /// wake-up, with room in the queue. 0 unless a wake-up went missing
    /// or a non-parking producer kept the queue above the low-water
    /// mark.
    pub(crate) gate_backstops: AtomicU64,
    pub(crate) per_gesture: Mutex<HashMap<String, u64>>,
    pub(crate) latency: Histogram,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        ShardMetrics {
            frames_in: AtomicU64::new(0),
            batches_in: AtomicU64::new(0),
            detections: AtomicU64::new(0),
            shed_frames: AtomicU64::new(0),
            shed_batches: AtomicU64::new(0),
            push_errors: AtomicU64::new(0),
            sink_panics: AtomicU64::new(0),
            columnar_batches: AtomicU64::new(0),
            block_skips: AtomicU64::new(0),
            sessions: AtomicUsize::new(0),
            retiring: AtomicUsize::new(0),
            pinned_core: AtomicI64::new(-1),
            contention: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            sessions_reset: AtomicU64::new(0),
            quarantined_frames: AtomicU64::new(0),
            stale_batches: AtomicU64::new(0),
            stale_frames: AtomicU64::new(0),
            quota_batches: AtomicU64::new(0),
            quota_frames: AtomicU64::new(0),
            mem_rejected_batches: AtomicU64::new(0),
            state_bytes: AtomicI64::new(0),
            batch_buffer_bytes: AtomicU64::new(0),
            producer_wakeups: AtomicU64::new(0),
            gate_backstops: AtomicU64::new(0),
            per_gesture: Mutex::new(HashMap::new()),
            latency: Histogram::new(),
        }
    }
}

impl ShardMetrics {
    pub(crate) fn record_detections(&self, gesture_counts: &HashMap<String, u64>, total: u64) {
        self.detections.fetch_add(total, Ordering::Relaxed);
        // Uncontended on the steady state (only scrapes and
        // `ServerHandle::metrics` read this map); count the times it is
        // not, so the contention audit has a live witness.
        let mut map = match self.per_gesture.try_lock() {
            Some(map) => map,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.per_gesture.lock()
            }
        };
        for (g, n) in gesture_counts {
            *map.entry(g.clone()).or_insert(0) += n;
        }
    }

    /// `queue_depth` is read from the shard's queue gate (the one live
    /// counter backpressure also uses) and passed in by the server.
    pub(crate) fn snapshot(&self, shard: usize, queue_depth: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            frames_in: self.frames_in.load(Ordering::Relaxed),
            batches_in: self.batches_in.load(Ordering::Relaxed),
            detections: self.detections.load(Ordering::Relaxed),
            shed_frames: self.shed_frames.load(Ordering::Relaxed),
            shed_batches: self.shed_batches.load(Ordering::Relaxed),
            push_errors: self.push_errors.load(Ordering::Relaxed),
            sink_panics: self.sink_panics.load(Ordering::Relaxed),
            columnar_batches: self.columnar_batches.load(Ordering::Relaxed),
            block_skips: self.block_skips.load(Ordering::Relaxed),
            queue_depth,
            sessions: self.sessions.load(Ordering::Relaxed),
            retiring: self.retiring.load(Ordering::Relaxed),
            pinned_core: self.pinned_core.load(Ordering::Relaxed),
            contention: self.contention.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            sessions_reset: self.sessions_reset.load(Ordering::Relaxed),
            quarantined_frames: self.quarantined_frames.load(Ordering::Relaxed),
            stale_batches: self.stale_batches.load(Ordering::Relaxed),
            stale_frames: self.stale_frames.load(Ordering::Relaxed),
            quota_batches: self.quota_batches.load(Ordering::Relaxed),
            quota_frames: self.quota_frames.load(Ordering::Relaxed),
            mem_rejected_batches: self.mem_rejected_batches.load(Ordering::Relaxed),
            state_bytes: self.state_bytes.load(Ordering::Relaxed).max(0) as u64,
            batch_buffer_bytes: self.batch_buffer_bytes.load(Ordering::Relaxed),
            producer_wakeups: self.producer_wakeups.load(Ordering::Relaxed),
            gate_backstops: self.gate_backstops.load(Ordering::Relaxed),
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
    /// Batches dropped by the per-session frame-rate quota.
    pub quota_batches: u64,
    /// Frames inside those quota-dropped batches.
    pub quota_frames: u64,
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
/// `Healthy` → `Shedding` at
/// [`crate::ServerConfig::overload_shed_ratio`], `Shedding` →
/// `Rejecting` at [`crate::ServerConfig::overload_reject_ratio`]; the
/// machine walks back down as the shards drain. Surfaced through
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

/// Thresholds the overload state machine evaluates against (derived
/// from the server config once at startup).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OverloadPolicy {
    pub queue_capacity: usize,
    pub memory_budget: usize,
    pub shed_ratio: f64,
    pub reject_ratio: f64,
}

impl OverloadPolicy {
    pub(crate) fn from_config(config: &crate::ServerConfig) -> Self {
        OverloadPolicy {
            queue_capacity: config.effective_queue_capacity(),
            memory_budget: config.shard_memory_budget,
            shed_ratio: config.overload_shed_ratio.max(0.01),
            reject_ratio: config.overload_reject_ratio.max(0.01),
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
            + metrics.state_bytes.load(Ordering::Relaxed).max(0) as f64;
        queue.max(mem_used / self.memory_budget as f64)
    }

    /// Folds per-shard fills into the machine's state (worst shard
    /// wins).
    pub(crate) fn classify(&self, worst_fill: f64) -> OverloadState {
        if worst_fill >= self.reject_ratio {
            OverloadState::Rejecting
        } else if worst_fill >= self.shed_ratio {
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

    /// Total frames dropped by admission control (stale + quota), not
    /// counting frames refused before enqueue (memory budget, which
    /// hands the frames back to the caller).
    pub fn admission_dropped_frames(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.stale_frames + s.quota_frames)
            .sum()
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
    fn empty_summary_is_zero() {
        assert_eq!(
            LatencySummary::from_histogram(&Histogram::new()),
            LatencySummary::default()
        );
    }
}
