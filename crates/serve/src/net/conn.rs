//! Per-connection state: the read-side state machine owned by an I/O
//! thread, and the [`Outbox`] shared with detection-sink threads.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use gesto_kinect::SkeletonFrame;
use parking_lot::Mutex;

use super::metrics::NetMetricsInner;
use super::wire;

/// Outbound bytes a connection's outbox may buffer before the
/// connection is condemned as a slow detection consumer.
pub(crate) const MAX_OUTBOX_BYTES: usize = 4 << 20;

/// Serialised write side of one connection, shared between its I/O
/// thread and the shard threads delivering detections.
///
/// Writes go straight to the (non-blocking) socket while it accepts
/// them — a detection produced on a shard thread reaches the wire
/// without waiting for the event loop — and spill into a buffer when
/// the socket is full; the I/O thread flushes the spill on writability.
/// The buffer mutex is the write serialisation point.
pub(crate) struct Outbox {
    stream: Arc<TcpStream>,
    buf: Mutex<SpillBuf>,
    /// Buffered bytes are waiting for a flush (maintained under the
    /// mutex; read lock-free by the event loop's scan).
    pending: AtomicBool,
    /// The connection is beyond saving (outbox overflow or socket
    /// error); the I/O thread reaps it on its next pass.
    dead: AtomicBool,
    metrics: Arc<NetMetricsInner>,
    /// Wakes the I/O loop when the outbox spills or dies (sent at most
    /// once per transition; the loop re-arms write interest).
    dirty: Sender<u64>,
    /// This connection's poller token, sent on `dirty`.
    id: u64,
    /// A `DetectionsDropped` notice is already queued for the current
    /// congestion episode (maintained under the buffer mutex; cleared
    /// by [`Self::flush`] once the spill drains, so each episode
    /// produces exactly one notice).
    notice_queued: AtomicBool,
}

#[derive(Default)]
struct SpillBuf {
    bytes: VecDeque<u8>,
}

impl Outbox {
    pub(crate) fn new(
        stream: Arc<TcpStream>,
        metrics: Arc<NetMetricsInner>,
        dirty: Sender<u64>,
        id: u64,
    ) -> Self {
        Outbox {
            stream,
            buf: Mutex::new(SpillBuf::default()),
            pending: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            metrics,
            dirty,
            id,
            notice_queued: AtomicBool::new(false),
        }
    }

    fn notify(&self) {
        let _ = self.dirty.send(self.id);
    }

    /// Queues `bytes` (a whole number of protocol messages) for the
    /// peer, writing through to the socket when possible. Overflow
    /// condemns the connection: control-plane replies, credit grants
    /// and error frames must not be silently lost.
    pub(crate) fn send(&self, bytes: &[u8]) {
        self.send_inner(bytes, None);
    }

    /// [`Self::send`] for **droppable** payloads (detection pushes): on
    /// overflow the message is shed — counted in
    /// `gesto_net_detections_dropped_total` — instead of condemning the
    /// connection, and a one-shot
    /// `DetectionsDropped` notice frame (`notice`, pre-encoded by the
    /// caller) is queued so the peer observes the gap instead of a
    /// silent hole in its detection stream (one notice per congestion
    /// episode; re-armed when the spill drains). Returns whether the
    /// payload itself was accepted.
    pub(crate) fn send_droppable(&self, bytes: &[u8], notice: &[u8]) -> bool {
        self.send_inner(bytes, Some(notice))
    }

    fn send_inner(&self, bytes: &[u8], droppable_notice: Option<&[u8]>) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut buf = self.buf.lock();
        let mut offset = 0;
        if buf.bytes.is_empty() {
            // Fast path: write directly; only the remainder spills.
            loop {
                match (&*self.stream).write(&bytes[offset..]) {
                    Ok(0) => break,
                    Ok(n) => {
                        self.metrics.bytes_out.add(n as u64);
                        offset += n;
                        if offset == bytes.len() {
                            return true;
                        }
                    }
                    Err(e) if super::poll::would_block(&e) => break,
                    Err(_) => {
                        self.dead.store(true, Ordering::Release);
                        self.notify();
                        return false;
                    }
                }
            }
        }
        if buf.bytes.len() + (bytes.len() - offset) > MAX_OUTBOX_BYTES {
            let Some(notice) = droppable_notice else {
                // The peer is not reading and this message may not be
                // shed; shedding part of a message would desynchronise
                // framing, so the connection is condemned instead.
                self.metrics.slow_consumer_drops.inc();
                self.dead.store(true, Ordering::Release);
                self.notify();
                return false;
            };
            // Droppable: shed the detection, keep the connection.
            // `notice_queued` is read and written under the buffer
            // mutex (flush clears it the same way). The ~20-byte notice
            // may overshoot the cap transiently — bounded by one notice
            // per congestion episode.
            self.metrics.detections_dropped.inc();
            if !self.notice_queued.load(Ordering::Relaxed) {
                self.notice_queued.store(true, Ordering::Relaxed);
                self.metrics.detection_notices.inc();
                buf.bytes.extend(notice);
                if !self.pending.swap(true, Ordering::AcqRel) {
                    self.notify();
                }
            }
            return false;
        }
        buf.bytes.extend(&bytes[offset..]);
        if !self.pending.swap(true, Ordering::AcqRel) {
            self.notify();
        }
        true
    }

    /// Flushes spilled bytes; returns `true` when the spill is empty
    /// again.
    pub(crate) fn flush(&self) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return true;
        }
        let mut buf = self.buf.lock();
        while !buf.bytes.is_empty() {
            let (head, _) = buf.bytes.as_slices();
            match (&*self.stream).write(head) {
                Ok(0) => break,
                Ok(n) => {
                    self.metrics.bytes_out.add(n as u64);
                    buf.bytes.drain(..n);
                }
                Err(e) if super::poll::would_block(&e) => break,
                Err(_) => {
                    // The flushing I/O thread observes `dead` directly;
                    // no notification needed.
                    self.dead.store(true, Ordering::Release);
                    buf.bytes.clear();
                    break;
                }
            }
        }
        let empty = buf.bytes.is_empty();
        if empty {
            // The congestion episode is over: the next detection shed
            // (if any) starts a new episode with a fresh notice.
            self.notice_queued.store(false, Ordering::Relaxed);
        }
        self.pending.store(!empty, Ordering::Release);
        empty
    }

    /// Buffered bytes are waiting for [`Self::flush`].
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.load(Ordering::Acquire)
    }

    /// The connection hit a fatal write-side condition.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Marks the connection for reaping.
    pub(crate) fn kill(&self) {
        self.dead.store(true, Ordering::Release);
    }
}

/// What the read loop decided to do with a connection after a pass.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Keep the connection registered.
    Continue,
    /// Peer closed or errored; drop the connection.
    Closed,
}

/// A client session bound on this connection.
pub(crate) struct SessionBinding {
    /// Engine-side session id (globally unique across connections).
    pub global: u64,
    /// The route registered under `global`, kept here so the per-batch
    /// receive stamp takes neither the registry lock nor a lookup.
    pub route: Arc<super::SessionRoute>,
}

/// Read-side state of one client connection (owned by one I/O thread).
///
/// A readable event runs one pass: [`Self::fill`] reads into the free
/// tail of `rbuf`, then the I/O loop decodes message after message in
/// place (or sniffs an HTTP request head) and the window's start
/// advances. The only bytes a pass moves are those of a message that
/// was still partial when the last pass ended.
pub(crate) struct Conn {
    /// Poller token / connection id.
    pub id: u64,
    pub stream: Arc<TcpStream>,
    pub outbox: Arc<Outbox>,
    /// Inbound bytes: read into its free tail, decoded where they
    /// landed ([`wire::ReadBuf`]).
    pub rbuf: wire::ReadBuf,
    /// Protocol state: false until a valid `Hello` was processed.
    pub greeted: bool,
    /// Negotiated hello flags (`wire::FLAG_*`).
    pub flags: u16,
    /// Remaining frames the client may send (server-side mirror of the
    /// client's credit).
    pub credits: i64,
    /// Frames accepted since the last credit grant; granted back in
    /// chunks to amortise `Credit` messages.
    pub credit_debt: u32,
    /// Client session id → engine binding.
    pub sessions: HashMap<u64, SessionBinding>,
    /// Batches accepted from the wire but not yet placed on a shard
    /// queue (the shard was full under the blocking policy). While
    /// non-empty the connection's read interest is off: no new input,
    /// no credit — backpressure reaches the client.
    pub parked: VecDeque<(u64, Vec<SkeletonFrame>)>,
    /// In-flight session closes: (client session id, engine session
    /// id, shard ack).
    pub closing: Vec<(u64, u64, Receiver<()>)>,
    /// A `Bye` arrived: close remaining sessions, flush, disconnect.
    pub draining: bool,
    /// Read interest currently disabled in the poller (parked state).
    pub paused: bool,
    /// First bytes looked like an HTTP request: the connection serves
    /// one plaintext scrape (`/metrics`, `/healthz`) and closes.
    pub http: bool,
    /// Last moment bytes arrived from the peer (drives the idle
    /// sweep; see `NetConfig::idle_timeout_ms`).
    pub last_activity: Instant,
}

impl Conn {
    pub(crate) fn new(id: u64, stream: Arc<TcpStream>, outbox: Arc<Outbox>) -> Self {
        Conn {
            id,
            stream,
            outbox,
            rbuf: wire::ReadBuf::new(),
            greeted: false,
            flags: 0,
            credits: 0,
            credit_debt: 0,
            sessions: HashMap::new(),
            parked: VecDeque::new(),
            closing: Vec::new(),
            draining: false,
            paused: false,
            http: false,
            last_activity: Instant::now(),
        }
    }

    /// Reads what the socket holds into `rbuf`, up to
    /// [`wire::MAX_PER_PASS`] bytes a pass (fairness across
    /// connections) or until whole messages fill the buffer.
    pub(crate) fn fill(&mut self, metrics: &NetMetricsInner) -> ReadOutcome {
        let mut read_this_pass = 0usize;
        while read_this_pass < wire::MAX_PER_PASS {
            match self.rbuf.read(&*self.stream) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    metrics.bytes_in.add(n as u64);
                    self.last_activity = Instant::now();
                    read_this_pass += n;
                }
                Err(e) if super::poll::would_block(&e) => break,
                Err(_) => return ReadOutcome::Closed,
            }
        }
        ReadOutcome::Continue
    }

    /// Sends one message through the outbox.
    pub(crate) fn send(&self, msg: &wire::Message, scratch: &mut Vec<u8>) {
        scratch.clear();
        wire::encode(msg, scratch);
        self.outbox.send(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Duration;

    /// Overflowing the outbox with droppable payloads sheds them
    /// (counted in the edge's metrics) and queues exactly one
    /// notice per congestion episode — without condemning the
    /// connection; draining the spill re-arms the notice.
    #[test]
    fn droppable_overflow_sheds_with_one_notice_per_episode() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let metrics = Arc::new(NetMetricsInner::new(&gesto_telemetry::Registry::new()));
        let (dirty, _dirty_rx) = crossbeam::channel::unbounded();
        let outbox = Outbox::new(Arc::new(stream), metrics.clone(), dirty, 1);

        // Far more than the socket buffer + MAX_OUTBOX_BYTES can hold.
        let payload = vec![0u8; 1 << 20];
        let notice = [0xABu8; 24];
        let mut shed = 0u64;
        for _ in 0..((MAX_OUTBOX_BYTES >> 20) + 32) {
            if !outbox.send_droppable(&payload, &notice) {
                shed += 1;
            }
        }
        assert!(shed >= 1, "outbox never overflowed");
        assert_eq!(metrics.detections_dropped.get(), shed);
        assert_eq!(
            metrics.detection_notices.get(),
            1,
            "one congestion episode must queue exactly one notice"
        );
        assert!(!outbox.is_dead(), "droppable overflow must not condemn");

        // Drain the peer until the spill clears; the notice re-arms.
        peer.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut sink = vec![0u8; 1 << 20];
        for _ in 0..4096 {
            if outbox.flush() {
                break;
            }
            if let Ok(0) = (&peer).read(&mut sink) {
                panic!("peer saw EOF while spill non-empty");
            }
        }
        assert!(outbox.flush(), "spill never drained");
        assert!(outbox.send_droppable(&[1, 2, 3], &notice));
        assert_eq!(metrics.detections_dropped.get(), shed);
    }
}
