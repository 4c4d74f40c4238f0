//! Network-edge metrics: the edge's counters and its frame-received →
//! detection-pushed latency histogram, registered in the server's
//! registry as the `gesto_net_*` families when
//! [`crate::net::NetServer::start`] builds them.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use gesto_telemetry::{Counter, Gauge, Histogram, Registry};

/// The edge's instruments behind [`NetMetrics`]. Internal to the crate;
/// the public read view is [`NetMetrics`].
pub(crate) struct NetMetricsInner {
    pub(crate) connections_accepted: Arc<Counter>,
    pub(crate) connections_closed: Arc<Counter>,
    pub(crate) connections_active: Arc<Gauge>,
    pub(crate) sessions_opened: Arc<Counter>,
    pub(crate) frames_received: Arc<Counter>,
    pub(crate) batches_received: Arc<Counter>,
    pub(crate) batches_parked: Arc<Counter>,
    pub(crate) batches_rejected: Arc<Counter>,
    pub(crate) detections_sent: Arc<Counter>,
    pub(crate) protocol_errors: Arc<Counter>,
    pub(crate) slow_consumer_drops: Arc<Counter>,
    pub(crate) detections_dropped: Arc<Counter>,
    pub(crate) detection_notices: Arc<Counter>,
    pub(crate) sessions_rejected: Arc<Counter>,
    /// Bumped after a release fence, once the teardown it counts is
    /// done; read by [`NetMetrics::idle_closed`].
    pub(crate) idle_closed: Arc<Counter>,
    pub(crate) credit_stalls: Arc<Counter>,
    pub(crate) http_requests: Arc<Counter>,
    pub(crate) bytes_in: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
    pub(crate) latency: Arc<Histogram>,
}

impl NetMetricsInner {
    /// Registers the edge's instruments in `registry`. A second edge on
    /// the same registry gets the same instruments, and counts into
    /// them.
    pub(crate) fn new(registry: &Registry) -> Self {
        let counter = |name: &str, help: &str| registry.instrument(name, help, &[]);
        NetMetricsInner {
            connections_accepted: counter(
                "gesto_net_connections_accepted_total",
                "TCP connections accepted by the network edge",
            ),
            connections_closed: counter(
                "gesto_net_connections_closed_total",
                "TCP connections fully torn down",
            ),
            connections_active: registry.instrument(
                "gesto_net_connections_active",
                "Connections currently registered with the event loop",
                &[],
            ),
            sessions_opened: counter(
                "gesto_net_sessions_opened_total",
                "Engine sessions opened over the wire",
            ),
            frames_received: counter(
                "gesto_net_frames_received_total",
                "Skeleton frames decoded off the wire and accepted",
            ),
            batches_received: counter(
                "gesto_net_batches_received_total",
                "Frame batches decoded off the wire and accepted",
            ),
            batches_parked: counter(
                "gesto_net_batches_parked_total",
                "Batches parked on their connection by shard backpressure",
            ),
            batches_rejected: counter(
                "gesto_net_batches_rejected_total",
                "Batches refused with a QueueFull error frame",
            ),
            detections_sent: counter(
                "gesto_net_detections_sent_total",
                "Detection messages pushed onto client connections",
            ),
            protocol_errors: counter(
                "gesto_net_protocol_errors_total",
                "Malformed or out-of-contract client messages",
            ),
            slow_consumer_drops: counter(
                "gesto_net_slow_consumer_drops_total",
                "Connections condemned because their detection outbox overflowed",
            ),
            detections_dropped: counter(
                "gesto_net_detections_dropped_total",
                "Detection messages shed because their connection's outbox was full",
            ),
            detection_notices: counter(
                "gesto_net_detection_notices_total",
                "DetectionsDropped notice frames queued to slow-reading peers",
            ),
            sessions_rejected: counter(
                "gesto_net_sessions_rejected_total",
                "Session binds refused by admission control (overload or per-connection cap)",
            ),
            idle_closed: counter(
                "gesto_net_idle_closed_total",
                "Connections closed by the idle timeout",
            ),
            credit_stalls: counter(
                "gesto_net_credit_stalls_total",
                "Times a connection's reads were paused by shard backpressure \
                 (its credit window left to dry up)",
            ),
            http_requests: counter(
                "gesto_net_http_requests_total",
                "HTTP requests served off the multiplexed port",
            ),
            bytes_in: counter("gesto_net_bytes_in_total", "Bytes read off client sockets"),
            bytes_out: counter(
                "gesto_net_bytes_out_total",
                "Bytes written to client sockets",
            ),
            latency: registry.instrument(
                "gesto_net_e2e_latency_us",
                "Last accepted wire batch to detection entering the socket outbox, \
                 per session, in microseconds",
                &[],
            ),
        }
    }
}

/// Read-side handle over the network edge's metrics.
///
/// Obtained from [`crate::net::NetServer::metrics`]; all accessors are
/// wait-free reads of the edge's instruments, safe to call from any
/// thread while the server runs.
#[derive(Clone)]
pub struct NetMetrics {
    pub(crate) inner: Arc<NetMetricsInner>,
}

impl NetMetrics {
    /// Connections accepted since startup.
    pub fn connections_accepted(&self) -> u64 {
        self.inner.connections_accepted.get()
    }

    /// Connections fully torn down since startup.
    pub fn connections_closed(&self) -> u64 {
        self.inner.connections_closed.get()
    }

    /// Connections currently registered with the event loop.
    pub fn connections_active(&self) -> u64 {
        self.inner.connections_active.get().max(0) as u64
    }

    /// Sessions opened over the network since startup.
    pub fn sessions_opened(&self) -> u64 {
        self.inner.sessions_opened.get()
    }

    /// Skeleton frames decoded off the wire and accepted.
    pub fn frames_received(&self) -> u64 {
        self.inner.frames_received.get()
    }

    /// Frame batches decoded off the wire and accepted.
    pub fn batches_received(&self) -> u64 {
        self.inner.batches_received.get()
    }

    /// Batches that had to park because a shard queue was full under
    /// the blocking backpressure policy (each park pauses that
    /// connection's reads until the shard drains).
    pub fn batches_parked(&self) -> u64 {
        self.inner.batches_parked.get()
    }

    /// Batches refused with a `QueueFull` error frame (shard memory
    /// budget spent, or the connection's parked-batch cap reached).
    pub fn batches_rejected(&self) -> u64 {
        self.inner.batches_rejected.get()
    }

    /// Detection messages pushed onto client connections.
    pub fn detections_sent(&self) -> u64 {
        self.inner.detections_sent.get()
    }

    /// Malformed or out-of-contract messages received.
    pub fn protocol_errors(&self) -> u64 {
        self.inner.protocol_errors.get()
    }

    /// Connections condemned because their detection outbox overflowed
    /// on a non-droppable (control/credit/error) message.
    pub fn slow_consumer_drops(&self) -> u64 {
        self.inner.slow_consumer_drops.get()
    }

    /// Detection messages shed (instead of delivered) because their
    /// connection's outbox was full — each gap is announced to the peer
    /// with a non-fatal `DetectionsDropped` notice frame.
    pub fn detections_dropped(&self) -> u64 {
        self.inner.detections_dropped.get()
    }

    /// `DetectionsDropped` notice frames queued to peers (one per
    /// congestion episode per connection).
    pub fn detection_notices(&self) -> u64 {
        self.inner.detection_notices.get()
    }

    /// Session binds refused by admission control: the server was in
    /// the `Rejecting` overload state, or the connection hit its
    /// session cap (`MAX_SESSIONS_PER_CONN`, 1 024).
    pub fn sessions_rejected(&self) -> u64 {
        self.inner.sessions_rejected.get()
    }

    /// Connections closed by the idle timeout
    /// ([`crate::net::NetConfig::idle_timeout_ms`]). Published after the
    /// teardown (Release/Acquire): a close seen here is already gone
    /// from [`Self::connections_active`].
    pub fn idle_closed(&self) -> u64 {
        let closed = self.inner.idle_closed.get();
        // Pairs with the release fence before the bump in the idle
        // sweep.
        fence(Ordering::Acquire);
        closed
    }

    /// Times a connection's reads were paused because it ran out of
    /// credit with batches parked (shard backpressure surfacing at the
    /// wire).
    pub fn credit_stalls(&self) -> u64 {
        self.inner.credit_stalls.get()
    }

    /// HTTP requests served off the multiplexed port (`/metrics`,
    /// `/healthz`, and rejected paths/methods).
    pub fn http_requests(&self) -> u64 {
        self.inner.http_requests.get()
    }

    /// Total bytes read off client sockets.
    pub fn bytes_in(&self) -> u64 {
        self.inner.bytes_in.get()
    }

    /// Total bytes written to client sockets.
    pub fn bytes_out(&self) -> u64 {
        self.inner.bytes_out.get()
    }

    /// Histogram of frame-received → detection-pushed latency in
    /// microseconds: the time from the last wire batch accepted on a
    /// session to a detection for that session entering the socket
    /// outbox.
    pub fn latency(&self) -> &Histogram {
        &self.inner.latency
    }
}
