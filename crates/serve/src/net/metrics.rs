//! Network-edge metrics: counters plus the shared lock-free
//! power-of-two latency histogram for the frame-received →
//! detection-pushed path.
//!
//! The histogram type itself lives in `gesto-telemetry` (it started
//! here and was promoted when the unified registry arrived); the old
//! names are re-exported for compatibility. The counters below are
//! exported into the server's registry as the `gesto_net_*` families by
//! a collector registered in [`crate::net::NetServer::start`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared power-of-two histogram (records microseconds here).
pub use gesto_telemetry::Histogram as LatencyHistogram;
/// Number of power-of-two buckets in [`LatencyHistogram`].
pub use gesto_telemetry::HISTOGRAM_BUCKETS as LATENCY_BUCKETS;

/// Shared counters behind [`NetMetrics`]. Internal to the crate; the
/// public snapshot view is [`NetMetrics`].
#[derive(Default)]
pub(crate) struct NetMetricsInner {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_closed: AtomicU64,
    pub(crate) connections_active: AtomicU64,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) frames_received: AtomicU64,
    pub(crate) batches_received: AtomicU64,
    pub(crate) batches_parked: AtomicU64,
    pub(crate) batches_rejected: AtomicU64,
    pub(crate) detections_sent: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) slow_consumer_drops: AtomicU64,
    pub(crate) detections_dropped: AtomicU64,
    pub(crate) detection_notices: AtomicU64,
    pub(crate) sessions_rejected: AtomicU64,
    pub(crate) idle_closed: AtomicU64,
    pub(crate) credit_stalls: AtomicU64,
    pub(crate) http_requests: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) latency: LatencyHistogram,
}

impl NetMetricsInner {
    pub(crate) fn bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn slow_consumer_drop(&self) {
        self.slow_consumer_drops.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn detection_drop(&self) {
        self.detections_dropped.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn detection_notice(&self) {
        self.detection_notices.fetch_add(1, Ordering::Relaxed);
    }
}

/// Read-side handle over the network edge's metrics.
///
/// Obtained from [`crate::net::NetServer::metrics`]; all accessors are
/// wait-free reads of relaxed atomics, safe to call from any thread
/// while the server runs.
#[derive(Clone)]
pub struct NetMetrics {
    pub(crate) inner: Arc<NetMetricsInner>,
}

impl NetMetrics {
    /// Connections accepted since startup.
    pub fn connections_accepted(&self) -> u64 {
        self.inner.connections_accepted.load(Ordering::Relaxed)
    }

    /// Connections fully torn down since startup.
    pub fn connections_closed(&self) -> u64 {
        self.inner.connections_closed.load(Ordering::Relaxed)
    }

    /// Connections currently registered with the event loop.
    pub fn connections_active(&self) -> u64 {
        self.inner.connections_active.load(Ordering::Relaxed)
    }

    /// Sessions opened over the network since startup.
    pub fn sessions_opened(&self) -> u64 {
        self.inner.sessions_opened.load(Ordering::Relaxed)
    }

    /// Skeleton frames decoded off the wire and accepted.
    pub fn frames_received(&self) -> u64 {
        self.inner.frames_received.load(Ordering::Relaxed)
    }

    /// Frame batches decoded off the wire and accepted.
    pub fn batches_received(&self) -> u64 {
        self.inner.batches_received.load(Ordering::Relaxed)
    }

    /// Batches that had to park because a shard queue was full under
    /// the blocking backpressure policy (each park pauses that
    /// connection's reads until the shard drains).
    pub fn batches_parked(&self) -> u64 {
        self.inner.batches_parked.load(Ordering::Relaxed)
    }

    /// Batches refused with a `QueueFull` error frame (rejecting
    /// backpressure policy).
    pub fn batches_rejected(&self) -> u64 {
        self.inner.batches_rejected.load(Ordering::Relaxed)
    }

    /// Detection messages pushed onto client connections.
    pub fn detections_sent(&self) -> u64 {
        self.inner.detections_sent.load(Ordering::Relaxed)
    }

    /// Malformed or out-of-contract messages received.
    pub fn protocol_errors(&self) -> u64 {
        self.inner.protocol_errors.load(Ordering::Relaxed)
    }

    /// Connections condemned because their detection outbox overflowed
    /// on a non-droppable (control/credit/error) message.
    pub fn slow_consumer_drops(&self) -> u64 {
        self.inner.slow_consumer_drops.load(Ordering::Relaxed)
    }

    /// Detection messages shed (instead of delivered) because their
    /// connection's outbox was full — each gap is announced to the peer
    /// with a non-fatal `DetectionsDropped` notice frame.
    pub fn detections_dropped(&self) -> u64 {
        self.inner.detections_dropped.load(Ordering::Relaxed)
    }

    /// `DetectionsDropped` notice frames queued to peers (one per
    /// congestion episode per connection).
    pub fn detection_notices(&self) -> u64 {
        self.inner.detection_notices.load(Ordering::Relaxed)
    }

    /// Session binds refused by admission control: the server was in
    /// the `Rejecting` overload state, or the connection hit its
    /// session cap ([`crate::net::NetConfig::max_sessions_per_conn`]).
    pub fn sessions_rejected(&self) -> u64 {
        self.inner.sessions_rejected.load(Ordering::Relaxed)
    }

    /// Connections closed by the idle timeout
    /// ([`crate::net::NetConfig::idle_timeout_ms`]). Published after the
    /// teardown (Release/Acquire): a close seen here is already gone
    /// from [`Self::connections_active`].
    pub fn idle_closed(&self) -> u64 {
        self.inner.idle_closed.load(Ordering::Acquire)
    }

    /// Times a connection's reads were paused because it ran out of
    /// credit with batches parked (shard backpressure surfacing at the
    /// wire).
    pub fn credit_stalls(&self) -> u64 {
        self.inner.credit_stalls.load(Ordering::Relaxed)
    }

    /// HTTP requests served off the multiplexed port (`/metrics`,
    /// `/healthz`, and rejected paths/methods).
    pub fn http_requests(&self) -> u64 {
        self.inner.http_requests.load(Ordering::Relaxed)
    }

    /// Total bytes read off client sockets.
    pub fn bytes_in(&self) -> u64 {
        self.inner.bytes_in.load(Ordering::Relaxed)
    }

    /// Total bytes written to client sockets.
    pub fn bytes_out(&self) -> u64 {
        self.inner.bytes_out.load(Ordering::Relaxed)
    }

    /// Histogram of frame-received → detection-pushed latency in
    /// microseconds: the time from the last wire batch accepted on a
    /// session to a detection for that session entering the socket
    /// outbox.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.inner.latency
    }
}
