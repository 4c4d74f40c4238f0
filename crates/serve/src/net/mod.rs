//! The TCP ingestion edge: a non-blocking network front-end for the
//! sharded detection [`Server`](crate::Server).
//!
//! One I/O thread runs a readiness loop (epoll on Linux, a portable
//! fallback elsewhere — see `poll`) over a non-blocking listener and
//! every client connection it accepted. Clients speak the versioned
//! little-endian `GSW1`
//! protocol specified in `docs/PROTOCOL.md` and implemented in
//! [`wire`]: columnar frame batches in, detections with session
//! attribution out, flow-controlled by credit grants.
//!
//! The decode path is allocation-lean by design: a connection reads
//! straight into the free tail of its read buffer (`wire::ReadBuf`),
//! and each message is decoded where its bytes landed. A read pass
//! moves at most one partial message, and a drained buffer starts again
//! at offset 0.
//! A wire batch decodes into `SkeletonFrame` rows whose per-joint lanes
//! mirror the engine's `ColumnBlock` layout, and is handed to the
//! existing shard pipeline via the non-blocking `offer_batch` — no
//! per-frame `Vec<Value>` materialisation between socket and NFA (see
//! `docs/ARCHITECTURE.md` for the full walk of the data path).
//!
//! **Backpressure** is end-to-end: a full shard queue under the
//! blocking policy parks the offending connection's batches, disables
//! its read interest and withholds credit — the client's credit window
//! dries up and *it* stops sending, while every other connection keeps
//! streaming. The rejecting policy surfaces as protocol `QueueFull`
//! error frames instead; drop-oldest stays invisible to the wire.
//!
//! Detections take the reverse path with minimal latency: shard
//! threads encode and write them into the connection's outbox
//! *directly* (flushing the socket inline when it has room), so a
//! detection does not wait for an event-loop tick.
//!
//! The same port doubles as the **observability endpoint**: a
//! connection whose first bytes spell an HTTP method instead of a
//! `GSW1` envelope is served `GET /metrics` (Prometheus text format
//! 0.0.4, rendered from the engine's [`crate::ServerHandle::registry`])
//! or `GET /healthz`, then closed — no extra thread, no extra port,
//! no HTTP dependency. Connections that send nothing for
//! [`NetConfig::idle_timeout_ms`] are reaped and counted as
//! `gesto_net_idle_closed_total`.
//!
//! ```no_run
//! use gesto_serve::net::{NetClient, NetConfig, NetServer};
//! use gesto_serve::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::new());
//! let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
//!
//! let mut client = NetClient::connect(net.local_addr()).unwrap();
//! client.open_session(1).unwrap();
//! // client.send_batch(1, &frames).unwrap();
//! let detections = client.bye().unwrap();
//! # drop(detections);
//! net.shutdown();
//! server.shutdown();
//! ```

pub mod client;
mod conn;
mod metrics;
mod poll;
pub mod wire;

pub use self::client::{client_reconnects_total, NetClient};
pub use self::metrics::NetMetrics;

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use self::conn::{Conn, Outbox, ReadOutcome, SessionBinding};
use self::metrics::NetMetricsInner;
use self::poll::{would_block, Event, Interest, Poller};
use self::wire::{ErrorCode, Message, WireDetection};
use crate::server::OfferOutcome;
use crate::{ServeError, ServerHandle, SessionId};

/// Poller token reserved for the listening socket.
const TOKEN_LISTENER: u64 = 0;

/// First engine-side session id handed to network sessions; keeps them
/// visually distinct from low in-process ids in metrics and logs.
const NET_SESSION_BASE: u64 = 1 << 32;

/// Maximum buffered bytes while waiting for the end of an HTTP request
/// head; longer requests are dropped.
const HTTP_MAX_REQUEST: usize = 8 * 1024;

/// Does the buffered prefix spell an HTTP request rather than a `GSW1`
/// envelope? A `GSW1` stream opens with a little-endian `u32` payload
/// length that is always small; ASCII method names decode to lengths
/// in the hundreds of millions, so four bytes disambiguate. Fewer than
/// four buffered bytes stay undecided (the frame decoder treats them
/// as an incomplete envelope and waits, so no commitment is made).
fn looks_like_http(buf: &[u8]) -> bool {
    if buf.len() < 4 {
        return false;
    }
    matches!(
        &buf[..4],
        b"GET " | b"HEAD" | b"POST" | b"PUT " | b"DELE" | b"OPTI" | b"PATC" | b"TRAC"
    )
}

/// Connections beyond this many are accepted and immediately dropped:
/// the last line of defence.
const MAX_CONNECTIONS: usize = 16_384;

/// Sessions one connection may bind. A bind past the cap is refused
/// with a non-fatal `Overloaded` error frame: it bounds what one
/// adversarial connection can pin in per-session NFA/view state.
const MAX_SESSIONS_PER_CONN: usize = 1_024;

/// Batches one connection may hold parked on shard backpressure. Past
/// the cap, further batches are dropped with a non-fatal `QueueFull`
/// error frame instead of parked: it bounds the frames a connection can
/// buffer server-side beyond its shard queue slot.
const MAX_PARKED_BATCHES: usize = 64;

/// Index just past the `\r\n\r\n` terminating an HTTP request head.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Configuration of the TCP edge ([`NetServer::start`]).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address, e.g. `"0.0.0.0:7313"`. Port 0 picks a free port
    /// (read it back with [`NetServer::local_addr`]).
    pub addr: String,
    /// Credit window per connection, in frames (§4 of
    /// `docs/PROTOCOL.md`): the number of frames a client may have in
    /// flight before it must wait for a grant.
    pub initial_credits: u32,
    /// Close a connection after this many milliseconds without inbound
    /// bytes (`0` disables the sweep). Idle closes are counted as
    /// `gesto_net_idle_closed_total`. Connections held paused by shard
    /// backpressure are exempt — they are stalled, not dead.
    pub idle_timeout_ms: u64,
    /// Accept control-plane messages (`Deploy`/`Undeploy`, §8 of
    /// `docs/PROTOCOL.md`) on this edge. **Off by default**: the
    /// data edge is typically exposed to untrusted producers, and a
    /// control message on a non-control edge is answered with a
    /// `ControlDisabled` error frame (the connection stays usable).
    pub allow_control: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_owned(),
            initial_credits: 4096,
            idle_timeout_ms: 300_000,
            allow_control: false,
        }
    }
}

impl NetConfig {
    /// Defaults: loopback on an ephemeral port, a 4096-frame credit
    /// window, at most 16384 connections, a five-minute idle timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the listen address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the per-connection credit window, in frames.
    pub fn with_initial_credits(mut self, frames: u32) -> Self {
        self.initial_credits = frames.max(1);
        self
    }

    /// Sets the idle timeout in milliseconds (`0` disables it).
    pub fn with_idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }

    /// Allows control-plane messages (deploy/undeploy/set-config) on
    /// this edge. Only enable on edges reserved for trusted operators.
    pub fn with_allow_control(mut self, allow: bool) -> Self {
        self.allow_control = allow;
        self
    }
}

/// Route from an engine session back to the connection that owns it.
pub(crate) struct SessionRoute {
    /// The client-chosen id detections are attributed to (§5).
    client_session: u64,
    outbox: Arc<Outbox>,
    /// The connection negotiated [`wire::FLAG_WANT_EVENTS`].
    want_events: bool,
    /// Microseconds (since server epoch) of the last accepted wire
    /// batch — the "frame received" end of the latency histogram.
    last_rx_us: AtomicU64,
}

type Registry = Arc<Mutex<HashMap<u64, Arc<SessionRoute>>>>;

/// The running TCP edge: owns the listener and the I/O thread.
///
/// Start one over a [`ServerHandle`]; it registers a detection sink on
/// the engine and serves the `GSW1` protocol until [`Self::shutdown`]
/// (or drop). See the [module docs](self) for the data path.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    metrics: NetMetrics,
}

impl NetServer {
    /// Binds `config.addr` and spawns the I/O thread serving `handle`'s
    /// engine over TCP.
    pub fn start(handle: ServerHandle, config: NetConfig) -> io::Result<NetServer> {
        poll::raise_nofile_limit();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let scrape = handle.registry();
        let inner = Arc::new(NetMetricsInner::new(&scrape));
        scrape.export(&client::CLIENT_RECONNECTS);
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let epoch = Instant::now();
        install_detection_sink(&handle, &registry, &inner, epoch);

        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let (dirty_tx, dirty_rx) = unbounded::<u64>();
        let stop = Arc::new(AtomicBool::new(false));
        let io = IoLoop {
            listener,
            poller,
            conns: HashMap::new(),
            attention: HashSet::new(),
            next_conn: TOKEN_LISTENER + 1,
            next_session: NET_SESSION_BASE,
            dirty_tx,
            dirty_rx,
            registry,
            decode_stage: handle.telemetry().stages.decode.clone(),
            decode_sampler: handle.telemetry().sampler(),
            handle,
            idle_timeout: (config.idle_timeout_ms > 0)
                .then(|| Duration::from_millis(config.idle_timeout_ms)),
            config,
            metrics: inner.clone(),
            epoch,
            events: Vec::with_capacity(256),
            scratch: Vec::with_capacity(512),
            stop: stop.clone(),
            scrape,
            idle_sweep_at: Instant::now(),
        };
        let thread = std::thread::Builder::new()
            .name("gesto-net".to_owned())
            .spawn(move || io.run())?;
        Ok(NetServer {
            local_addr,
            stop,
            thread: Some(thread),
            metrics: NetMetrics { inner },
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The edge's metric counters and latency histogram.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics.clone()
    }

    /// Stops the I/O thread, closing every connection (each receives a
    /// best-effort `Error(Shutdown)` frame first). The engine behind
    /// the edge keeps running.
    pub fn shutdown(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Registers the engine-side sink that routes detections back onto
/// client connections (runs on shard threads).
fn install_detection_sink(
    handle: &ServerHandle,
    registry: &Registry,
    inner: &Arc<NetMetricsInner>,
    epoch: Instant,
) {
    let registry = registry.clone();
    let inner = inner.clone();
    // Pre-encoded non-fatal notice queued (once per congestion episode)
    // when a slow consumer forces a detection to be shed; §7.1 of
    // docs/PROTOCOL.md.
    let mut notice = Vec::with_capacity(32);
    wire::encode(
        &Message::Error {
            code: ErrorCode::DetectionsDropped,
            detail: "detections shed".to_owned(),
        },
        &mut notice,
    );
    handle.on_detection(Arc::new(move |sid, det| {
        let route = registry.lock().get(&sid.0).cloned();
        let Some(route) = route else { return };
        let events = if route.want_events {
            det.events.iter().map(|t| t.values().to_vec()).collect()
        } else {
            Vec::new()
        };
        let mut buf = Vec::with_capacity(64);
        wire::encode(
            &Message::Detection(WireDetection {
                session: route.client_session,
                ts: det.ts,
                started_at: det.started_at,
                gesture: det.gesture.clone(),
                events,
            }),
            &mut buf,
        );
        if !route.outbox.send_droppable(&buf, &notice) {
            // Shed (or the connection died): counted inside the outbox;
            // neither `detections_sent` nor latency observes it.
            return;
        }
        inner.detections_sent.inc();
        let now = epoch.elapsed().as_micros() as u64;
        let rx = route.last_rx_us.load(Ordering::Acquire);
        if now >= rx {
            inner.latency.record(now - rx);
        }
    }));
}

/// Why a connection is being torn down.
enum Close {
    /// Clean close (peer hangup, completed `Bye`).
    Quiet,
    /// Protocol violation: send this error first, then close.
    Fault(ErrorCode, &'static str),
}

/// What [`IoLoop::offer`] made of a batch.
enum Offered {
    /// Queued on its shard, or refused and reported to the client.
    Done,
    /// The shard queue is full: the batch comes back to be parked.
    Full(Vec<gesto_kinect::SkeletonFrame>),
    /// The engine is gone.
    Close(Close),
}

/// The single-threaded event loop behind [`NetServer`].
struct IoLoop {
    listener: TcpListener,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    /// Connections needing per-tick service (parked batches, pending
    /// close acks, draining flushes).
    attention: HashSet<u64>,
    next_conn: u64,
    /// Engine session id of the next session bound over the wire.
    next_session: u64,
    dirty_tx: Sender<u64>,
    dirty_rx: Receiver<u64>,
    registry: Registry,
    handle: ServerHandle,
    config: NetConfig,
    metrics: Arc<NetMetricsInner>,
    epoch: Instant,
    events: Vec<Event>,
    scratch: Vec<u8>,
    stop: Arc<AtomicBool>,
    /// The engine's metric registry, rendered for `GET /metrics`.
    scrape: Arc<gesto_telemetry::Registry>,
    /// `gesto_stage_duration_ns{stage="decode"}` — wire decode time.
    decode_stage: Arc<gesto_telemetry::Histogram>,
    /// 1-in-N countdown gating the decode stage timer.
    decode_sampler: gesto_telemetry::Sampler,
    /// `None` disables the idle sweep.
    idle_timeout: Option<Duration>,
    /// Next moment the idle sweep runs.
    idle_sweep_at: Instant,
}

impl IoLoop {
    fn run(mut self) {
        loop {
            if self.stop.load(Ordering::Acquire) {
                self.shutdown_all();
                return;
            }
            self.events.clear();
            let timeout_ms = if self.attention.is_empty() { 10 } else { 1 };
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                // Transient poller failure: behave like a timeout.
                events.clear();
            }
            for ev in &events {
                if ev.token == TOKEN_LISTENER {
                    self.accept_ready();
                } else {
                    self.on_conn_event(ev.token, ev.readable, ev.writable);
                }
            }
            self.events = events;
            // Outboxes that spilled (or died) since the last tick.
            let dirty: Vec<u64> = self.dirty_rx.try_iter().collect();
            for id in dirty {
                self.on_dirty(id);
            }
            let ids: Vec<u64> = self.attention.iter().copied().collect();
            for id in ids {
                self.service(id);
            }
            if let Some(timeout) = self.idle_timeout {
                let now = Instant::now();
                if now >= self.idle_sweep_at {
                    self.sweep_idle(now, timeout);
                    let interval =
                        (timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
                    self.idle_sweep_at = now + interval;
                }
            }
        }
    }

    /// Closes connections that have sent nothing for the configured
    /// idle timeout. Paused/parked connections are exempt (they are
    /// held by backpressure, not absent), as are those mid-close or
    /// mid-drain.
    fn sweep_idle(&mut self, now: Instant, timeout: Duration) {
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.paused
                    && !c.draining
                    && c.parked.is_empty()
                    && c.closing.is_empty()
                    && now.duration_since(c.last_activity) >= timeout
            })
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            let Some(conn) = self.conns.remove(&id) else {
                continue;
            };
            let close = if conn.http {
                // Mid-request HTTP peer: no GSW1 error frame.
                Close::Quiet
            } else {
                Close::Fault(ErrorCode::Shutdown, "connection idle timeout")
            };
            self.finish_conn(conn, Some(close));
            // Counted after the teardown it describes: whoever reads
            // the close (acquire fence in `NetMetrics::idle_closed`)
            // also reads `connections_active` already decremented.
            fence(Ordering::Release);
            self.metrics.idle_closed.inc();
        }
    }

    // ----- accept -----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.accept_one(stream),
                Err(e) if would_block(&e) => break,
                Err(_) => break,
            }
        }
    }

    fn accept_one(&mut self, stream: TcpStream) {
        if self.conns.len() >= MAX_CONNECTIONS {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        self.next_conn += 1;
        let stream = Arc::new(stream);
        if self
            .poller
            .add(stream.as_raw_fd(), id, Interest::READ)
            .is_err()
        {
            return;
        }
        let outbox = Arc::new(Outbox::new(
            stream.clone(),
            self.metrics.clone(),
            self.dirty_tx.clone(),
            id,
        ));
        self.conns.insert(id, Conn::new(id, stream, outbox));
        self.metrics.connections_accepted.inc();
        self.metrics.connections_active.inc();
    }

    // ----- per-connection events --------------------------------------

    fn on_conn_event(&mut self, id: u64, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        let mut close = None;
        if writable && conn.outbox.flush() && !conn.outbox.is_dead() {
            // Spill drained; drop write interest.
            let interest = Interest {
                read: !conn.paused,
                write: false,
            };
            let _ = self.poller.modify(conn.stream.as_raw_fd(), id, interest);
        }
        if conn.outbox.is_dead() {
            close = Some(Close::Quiet);
        }
        if close.is_none() && readable && !conn.paused {
            close = self.drain_readable(&mut conn);
        }
        self.finish_conn(conn, close);
    }

    /// Reads and processes every available message on `conn`.
    fn drain_readable(&mut self, conn: &mut Conn) -> Option<Close> {
        let closed = conn.fill(&self.metrics) == ReadOutcome::Closed;
        if conn.http || (!conn.greeted && looks_like_http(conn.rbuf.unread())) {
            conn.http = true;
            return self.serve_http(conn, closed);
        }
        loop {
            if conn.paused {
                // A parked batch mid-buffer: stop decoding, keep bytes.
                break;
            }
            let decode_t0 = self.decode_sampler.sample().then(Instant::now);
            match conn.rbuf.decode() {
                Ok(Some(msg)) => {
                    if let Some(t0) = decode_t0 {
                        self.decode_stage.record(t0.elapsed().as_nanos() as u64);
                    }
                    if let Some(close) = self.on_message(conn, msg) {
                        return Some(close);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.metrics.protocol_errors.inc();
                    return Some(Close::Fault(ErrorCode::Malformed, "undecodable message"));
                }
            }
        }
        self.maybe_grant_credit(conn);
        if closed {
            Some(Close::Quiet)
        } else {
            None
        }
    }

    /// Serves one plaintext HTTP request (`/metrics`, `/healthz`) on a
    /// connection whose first bytes were an HTTP method, then drains
    /// and closes it through the normal completion path.
    fn serve_http(&mut self, conn: &mut Conn, closed: bool) -> Option<Close> {
        if conn.draining {
            // Response already queued; nothing further to read.
            return None;
        }
        let request = conn.rbuf.unread();
        let Some(end) = find_header_end(request) else {
            if closed || request.len() > HTTP_MAX_REQUEST {
                return Some(Close::Quiet);
            }
            return None;
        };
        self.metrics.http_requests.inc();
        let head = String::from_utf8_lossy(&request[..end]).into_owned();
        let mut parts = head.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let (status, content_type, body) = match (method, path) {
            ("GET" | "HEAD", "/metrics") => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                self.scrape.render(),
            ),
            ("GET" | "HEAD", "/healthz") => {
                // Overload-aware liveness: healthy/shedding answer 200
                // (the process is alive and serving, possibly degraded),
                // rejecting answers 503 so load balancers steer away.
                let state = self.handle.overload_state();
                let status = match state {
                    crate::metrics::OverloadState::Rejecting => "503 Service Unavailable",
                    _ => "200 OK",
                };
                (
                    status,
                    "text/plain; charset=utf-8",
                    format!("{}\n", state.as_str()),
                )
            }
            ("GET" | "HEAD", "/readyz") => {
                // Readiness: 503 until startup recovery finished, and
                // again once shutting down.
                if self.handle.is_ready() {
                    ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned())
                } else {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "not ready\n".to_owned(),
                    )
                }
            }
            ("GET" | "HEAD", _) => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_owned(),
            ),
            _ => (
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "only GET and HEAD\n".to_owned(),
            ),
        };
        let mut resp = Vec::with_capacity(160 + body.len());
        resp.extend_from_slice(
            format!(
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len(),
            )
            .as_bytes(),
        );
        if method != "HEAD" {
            resp.extend_from_slice(body.as_bytes());
        }
        conn.outbox.send(&resp);
        conn.rbuf.clear();
        conn.draining = true;
        self.attention.insert(conn.id);
        None
    }

    fn on_message(&mut self, conn: &mut Conn, msg: Message) -> Option<Close> {
        if !conn.greeted {
            return match msg {
                Message::Hello { version, flags } => self.on_hello(conn, version, flags),
                _ => Some(Close::Fault(
                    ErrorCode::Malformed,
                    "first message must be Hello",
                )),
            };
        }
        match msg {
            Message::Hello { .. } => Some(Close::Fault(ErrorCode::Malformed, "duplicate Hello")),
            Message::OpenSession { session } => {
                // A refused bind already queued its error frame.
                let _ = self.bind_session(conn, session);
                None
            }
            Message::FrameBatch { session, frames } => self.on_frame_batch(conn, session, frames),
            Message::CloseSession { session } => {
                self.begin_close(conn, session);
                None
            }
            Message::Ping { token } => {
                conn.send(&Message::Pong { token }, &mut self.scratch);
                None
            }
            Message::Bye => {
                conn.draining = true;
                let bound: Vec<u64> = conn.sessions.keys().copied().collect();
                for sid in bound {
                    self.begin_close(conn, sid);
                }
                self.attention.insert(conn.id);
                None
            }
            Message::Deploy { text } => self.on_control(conn, |handle| handle.deploy_text(&text)),
            Message::Undeploy { name } => self.on_control(conn, |handle| handle.undeploy(&name)),
            // Server→client messages have no business arriving here.
            Message::HelloAck { .. }
            | Message::Credit { .. }
            | Message::Detection(_)
            | Message::Error { .. }
            | Message::Pong { .. }
            | Message::SessionClosed { .. }
            | Message::ControlAck { .. } => Some(Close::Fault(
                ErrorCode::Malformed,
                "server-to-client message from client",
            )),
        }
    }

    /// Runs one control operation against the engine and acks it in
    /// connection FIFO order. A control message on a data-only edge
    /// gets a `ControlDisabled` error frame; the connection survives.
    ///
    /// On a durable engine the op blocks on the journal append (its
    /// fsync policy) before the ack — exactly the "journaled before
    /// acknowledged" contract of `docs/DURABILITY.md`, stretched to the
    /// wire. Control ops are rare; the event loop tolerates the stall.
    fn on_control(
        &mut self,
        conn: &mut Conn,
        op: impl FnOnce(&ServerHandle) -> Result<(), ServeError>,
    ) -> Option<Close> {
        if !self.config.allow_control {
            self.metrics.protocol_errors.inc();
            conn.send(
                &Message::Error {
                    code: ErrorCode::ControlDisabled,
                    detail: "edge started without allow_control".to_owned(),
                },
                &mut self.scratch,
            );
            return None;
        }
        let error = op(&self.handle).err().map(|e| e.to_string());
        conn.send(&Message::ControlAck { error }, &mut self.scratch);
        None
    }

    fn on_hello(&mut self, conn: &mut Conn, version: u16, flags: u16) -> Option<Close> {
        if version < 1 {
            return Some(Close::Fault(
                ErrorCode::UnsupportedVersion,
                "client version 0",
            ));
        }
        conn.greeted = true;
        conn.flags = flags & wire::SUPPORTED_FLAGS;
        conn.credits = i64::from(self.config.initial_credits);
        conn.send(
            &Message::HelloAck {
                version: version.min(wire::VERSION),
                flags: conn.flags,
                credits: self.config.initial_credits,
            },
            &mut self.scratch,
        );
        None
    }

    fn on_frame_batch(
        &mut self,
        conn: &mut Conn,
        session: u64,
        frames: Vec<gesto_kinect::SkeletonFrame>,
    ) -> Option<Close> {
        let n = frames.len() as i64;
        if n > conn.credits {
            self.metrics.protocol_errors.inc();
            return Some(Close::Fault(
                ErrorCode::CreditExceeded,
                "batch exceeds remaining credit",
            ));
        }
        conn.credits -= n;
        conn.credit_debt += n as u32;
        let Some(binding) = self.bind_session(conn, session) else {
            // Admission refused the bind: the batch is dropped (the
            // refusal frame is already queued) and the frames' credit
            // returns to the client through the accrued debt.
            return None;
        };
        let global = binding.global;
        binding
            .route
            .last_rx_us
            .store(self.epoch.elapsed().as_micros() as u64, Ordering::Release);
        self.metrics.frames_received.add(n as u64);
        self.metrics.batches_received.inc();
        if !conn.parked.is_empty() {
            if conn.parked.len() >= MAX_PARKED_BATCHES {
                // The connection already buffers its cap of parked
                // batches: drop instead of growing without bound.
                self.metrics.batches_rejected.inc();
                conn.send(
                    &Message::Error {
                        code: ErrorCode::QueueFull,
                        detail: "parked-batch cap reached, batch dropped".to_owned(),
                    },
                    &mut self.scratch,
                );
                return None;
            }
            // FIFO per connection: behind an already-parked batch.
            conn.parked.push_back((global, frames));
            return None;
        }
        match self.offer(conn, global, frames) {
            Offered::Full(frames) => {
                conn.parked.push_back((global, frames));
                self.metrics.batches_parked.inc();
                self.pause(conn);
                self.attention.insert(conn.id);
                None
            }
            Offered::Done => None,
            Offered::Close(close) => Some(close),
        }
    }

    /// Hands a batch to the engine and translates the result, for a
    /// fresh batch and a parked one alike: a batch the shard refuses
    /// (`ServeError::QueueFull`) is counted and reported to the client
    /// with a non-fatal `Error(QueueFull)`; a full shard hands the
    /// batch back for the caller to park.
    fn offer(
        &mut self,
        conn: &mut Conn,
        global: u64,
        frames: Vec<gesto_kinect::SkeletonFrame>,
    ) -> Offered {
        match self.handle.offer_batch(SessionId(global), frames) {
            Ok(OfferOutcome::Queued) => Offered::Done,
            Ok(OfferOutcome::Full(frames)) => Offered::Full(frames),
            Err(ServeError::QueueFull { .. }) => {
                self.metrics.batches_rejected.inc();
                conn.send(
                    &Message::Error {
                        code: ErrorCode::QueueFull,
                        detail: "shard queue full, batch dropped".to_owned(),
                    },
                    &mut self.scratch,
                );
                Offered::Done
            }
            Err(_) => Offered::Close(Close::Fault(ErrorCode::Shutdown, "engine shut down")),
        }
    }

    /// Resolves (or creates) the engine session bound to a client id.
    ///
    /// A **new** bind is subject to admission control and returns `None`
    /// when refused — the connection hit its session cap, or the server
    /// is in the `Rejecting` overload state. Refusals queue a non-fatal
    /// `Overloaded` error frame (§7.1 of `docs/PROTOCOL.md`); already
    /// bound sessions always resolve.
    fn bind_session<'c>(
        &mut self,
        conn: &'c mut Conn,
        client_sid: u64,
    ) -> Option<&'c SessionBinding> {
        if conn.sessions.contains_key(&client_sid) {
            return conn.sessions.get(&client_sid);
        }
        let refusal = if conn.sessions.len() >= MAX_SESSIONS_PER_CONN {
            Some("connection session cap reached")
        } else if self.handle.overload_state() == crate::metrics::OverloadState::Rejecting {
            Some("server rejecting new sessions under overload")
        } else {
            None
        };
        if let Some(detail) = refusal {
            self.metrics.sessions_rejected.inc();
            conn.send(
                &Message::Error {
                    code: ErrorCode::Overloaded,
                    detail: detail.to_owned(),
                },
                &mut self.scratch,
            );
            return None;
        }
        let global = self.next_session;
        self.next_session += 1;
        let _ = self.handle.open_session(SessionId(global));
        let route = Arc::new(SessionRoute {
            client_session: client_sid,
            outbox: conn.outbox.clone(),
            want_events: conn.flags & wire::FLAG_WANT_EVENTS != 0,
            last_rx_us: AtomicU64::new(self.epoch.elapsed().as_micros() as u64),
        });
        self.registry.lock().insert(global, route.clone());
        self.metrics.sessions_opened.inc();
        let binding = SessionBinding { global, route };
        Some(conn.sessions.entry(client_sid).or_insert(binding))
    }

    /// Starts an asynchronous session close; the ack is collected by
    /// [`Self::service`], which then sends `SessionClosed`.
    fn begin_close(&mut self, conn: &mut Conn, client_sid: u64) {
        let Some(binding) = conn.sessions.remove(&client_sid) else {
            // Unknown session: idempotent close.
            conn.send(
                &Message::SessionClosed {
                    session: client_sid,
                },
                &mut self.scratch,
            );
            return;
        };
        match self.handle.close_session_begin(SessionId(binding.global)) {
            Ok(ack) => {
                conn.closing.push((client_sid, binding.global, ack));
                self.attention.insert(conn.id);
            }
            Err(_) => {
                self.registry.lock().remove(&binding.global);
                conn.send(
                    &Message::SessionClosed {
                        session: client_sid,
                    },
                    &mut self.scratch,
                );
            }
        }
    }

    // ----- flow control ----------------------------------------------

    fn pause(&mut self, conn: &mut Conn) {
        if conn.paused {
            return;
        }
        conn.paused = true;
        self.metrics.credit_stalls.inc();
        let interest = Interest {
            read: false,
            write: conn.outbox.has_pending(),
        };
        let _ = self
            .poller
            .modify(conn.stream.as_raw_fd(), conn.id, interest);
    }

    fn resume(&mut self, conn: &mut Conn) {
        if !conn.paused {
            return;
        }
        conn.paused = false;
        let interest = Interest {
            read: true,
            write: conn.outbox.has_pending(),
        };
        let _ = self
            .poller
            .modify(conn.stream.as_raw_fd(), conn.id, interest);
    }

    /// Grants accumulated credit back once a quarter of the window is
    /// owed — but never while backpressure holds the connection parked
    /// (that is the whole mechanism: no credit, no new frames).
    fn maybe_grant_credit(&mut self, conn: &mut Conn) {
        if conn.paused || !conn.parked.is_empty() || conn.draining {
            return;
        }
        let threshold = (self.config.initial_credits / 4).max(1);
        if conn.credit_debt >= threshold {
            let grant = conn.credit_debt;
            conn.credit_debt = 0;
            conn.credits += i64::from(grant);
            conn.send(&Message::Credit { frames: grant }, &mut self.scratch);
        }
    }

    // ----- per-tick service ------------------------------------------

    /// Outbox transitioned to "has spill" or died since last tick.
    fn on_dirty(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        if conn.outbox.is_dead() {
            let conn = self.conns.remove(&id).expect("present");
            self.teardown(conn);
            return;
        }
        let interest = Interest {
            read: !conn.paused,
            write: true,
        };
        let _ = self.poller.modify(conn.stream.as_raw_fd(), id, interest);
    }

    /// Services a connection on the attention list: retries parked
    /// batches, collects close acks, completes drains.
    fn service(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            self.attention.remove(&id);
            return;
        };
        let mut close = None;

        // Parked batches: retry in order; stop at the first still-full.
        while let Some((global, frames)) = conn.parked.pop_front() {
            match self.offer(&mut conn, global, frames) {
                Offered::Done => continue,
                Offered::Full(frames) => {
                    conn.parked.push_front((global, frames));
                    break;
                }
                Offered::Close(c) => {
                    close = Some(c);
                    break;
                }
            }
        }
        if close.is_none() && conn.parked.is_empty() && conn.paused {
            self.resume(&mut conn);
            // Resuming may leave complete messages already buffered.
            close = self.drain_readable(&mut conn);
        }

        // Close acks.
        if close.is_none() {
            let mut still = Vec::new();
            for (client_sid, global, ack) in std::mem::take(&mut conn.closing) {
                if ack.try_iter().next().is_some() {
                    self.registry.lock().remove(&global);
                    conn.send(
                        &Message::SessionClosed {
                            session: client_sid,
                        },
                        &mut self.scratch,
                    );
                } else {
                    still.push((client_sid, global, ack));
                }
            }
            conn.closing = still;
        }

        // Drain completion: Bye processed, all sessions closed, outbox
        // flushed — the connection ends cleanly.
        if close.is_none()
            && conn.draining
            && conn.closing.is_empty()
            && conn.parked.is_empty()
            && !conn.outbox.has_pending()
        {
            close = Some(Close::Quiet);
        }

        let needs_attention = !conn.parked.is_empty()
            || !conn.closing.is_empty()
            || (conn.draining && conn.outbox.has_pending());
        if close.is_none() && !needs_attention {
            self.attention.remove(&id);
        }
        self.finish_conn(conn, close);
    }

    // ----- teardown ---------------------------------------------------

    fn finish_conn(&mut self, conn: Conn, close: Option<Close>) {
        match close {
            None => {
                self.conns.insert(conn.id, conn);
            }
            Some(Close::Quiet) => self.teardown(conn),
            Some(Close::Fault(code, detail)) => {
                conn.send(
                    &Message::Error {
                        code,
                        detail: detail.to_owned(),
                    },
                    &mut self.scratch,
                );
                self.teardown(conn);
            }
        }
    }

    fn teardown(&mut self, mut conn: Conn) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        conn.outbox.kill();
        for (_, binding) in conn.sessions.drain() {
            self.registry.lock().remove(&binding.global);
            let _ = self.handle.close_session_begin(SessionId(binding.global));
        }
        for (_, global, _) in conn.closing.drain(..) {
            self.registry.lock().remove(&global);
        }
        self.attention.remove(&conn.id);
        self.metrics.connections_closed.inc();
        self.metrics.connections_active.dec();
    }

    fn shutdown_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.remove(&id) {
                conn.send(
                    &Message::Error {
                        code: ErrorCode::Shutdown,
                        detail: "server shutting down".to_owned(),
                    },
                    &mut self.scratch,
                );
                conn.outbox.flush();
                self.teardown(conn);
            }
        }
    }
}
