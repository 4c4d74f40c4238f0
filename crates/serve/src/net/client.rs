//! A blocking `GSW1` client handle.
//!
//! [`NetClient`] is the reference client for the protocol in
//! `docs/PROTOCOL.md`: it speaks the handshake, respects the server's
//! credit window (blocking in [`NetClient::send_batch`] when credit
//! runs out — that is the backpressure reaching the producer), and
//! collects streamed detections. It is deliberately simple and
//! synchronous: one per producer thread; the tests and `perfbench`'s
//! wire workloads drive it.
//!
//! The data path **reconnects**: when the connection drops mid-stream,
//! [`NetClient::send_batch`] (and the other session operations)
//! redials with exponential backoff and jitter under a bounded retry
//! budget, re-handshakes, and re-opens every session the client had
//! open — the producer keeps streaming through a server restart.
//! Frames in flight around the drop may be lost (the
//! transport is at-most-once; the engine's durable control plane is
//! what survives the restart, not ephemeral frames). Control
//! operations ([`NetClient::deploy_text`] and friends) are **not**
//! auto-retried: a redeploy is version-bumping, so replaying one on a
//! suspicion of loss is not idempotent — callers decide.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use gesto_kinect::SkeletonFrame;
use gesto_telemetry::{Counter, Global};

use super::wire::{self, ErrorCode, Message, WireDetection};

/// Process-wide count of successful [`NetClient`] reconnects, exported
/// by any in-process network edge.
pub(crate) static CLIENT_RECONNECTS: Global<Counter> = Global::new(
    "gesto_net_client_reconnects_total",
    "Successful NetClient redials in this process (clients co-located \
     with the edge, e.g. benches and tests)",
    &[],
    Counter::new(),
);

/// Successful reconnects of every [`NetClient`] in this process.
pub fn client_reconnects_total() -> u64 {
    CLIENT_RECONNECTS.get()
}

/// Redial attempts per failed operation. After a connection failure
/// the client sleeps `min(BASE_BACKOFF_MS << (attempt - 1), MAX_BACKOFF_MS)`
/// milliseconds, halved-and-jittered (equal jitter: half fixed, half
/// random), then redials — at most this many times before the error
/// surfaces.
const MAX_RETRIES: u32 = 3;
/// First backoff step, in milliseconds.
const BASE_BACKOFF_MS: u64 = 50;
/// Backoff ceiling, in milliseconds.
const MAX_BACKOFF_MS: u64 = 2_000;

/// Is this I/O error a lost connection (worth redialling) rather than
/// a protocol or logic error?
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::WriteZero
    )
}

/// A blocking client connection to a [`NetServer`](super::NetServer).
///
/// ```no_run
/// use gesto_serve::net::NetClient;
///
/// let mut client = NetClient::connect("127.0.0.1:7313").unwrap();
/// client.open_session(7).unwrap();
/// // client.send_batch(7, &frames).unwrap();
/// for d in client.bye().unwrap() {
///     println!("session {} detected {} at {}", d.session, d.gesture, d.ts);
/// }
/// ```
pub struct NetClient {
    stream: TcpStream,
    /// Resolved peer addresses, kept for redialling.
    addrs: Vec<SocketAddr>,
    /// Inbound bytes, the server connections' read buffer: `pump`
    /// reads into its free tail until the socket would block,
    /// `read_message` reads once and blocks, and both decode the
    /// messages where they landed.
    rbuf: wire::ReadBuf,
    scratch: Vec<u8>,
    credits: u64,
    credit_waits: u64,
    rejected_batches: u64,
    drop_notices: u64,
    admission_rejections: u64,
    reconnects: u64,
    detections: VecDeque<WireDetection>,
    /// Sessions this client considers open — re-opened on reconnect.
    sessions: HashSet<u64>,
    closed_sessions: Vec<u64>,
    control_acks: VecDeque<Option<String>>,
    last_pong: Option<u64>,
    next_ping: u64,
    /// Splitmix64 state driving backoff jitter.
    jitter: u64,
}

impl NetClient {
    /// Connects and completes the handshake, requesting
    /// [`wire::FLAG_WANT_EVENTS`] (detections carry matched tuples).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unresolvable address",
            ));
        }
        let stream = TcpStream::connect(&addrs[..])?;
        stream.set_nodelay(true)?;
        let seed = std::process::id() as u64 ^ {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default();
            now.as_nanos() as u64
        };
        let mut client = NetClient {
            stream,
            addrs,
            rbuf: wire::ReadBuf::new(),
            scratch: Vec::with_capacity(4096),
            credits: 0,
            credit_waits: 0,
            rejected_batches: 0,
            drop_notices: 0,
            admission_rejections: 0,
            reconnects: 0,
            detections: VecDeque::new(),
            sessions: HashSet::new(),
            closed_sessions: Vec::new(),
            control_acks: VecDeque::new(),
            last_pong: None,
            next_ping: 1,
            jitter: seed,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Sends the hello on the current stream and absorbs the ack.
    fn handshake(&mut self) -> io::Result<()> {
        self.send_message(&Message::Hello {
            version: wire::VERSION,
            flags: wire::FLAG_WANT_EVENTS,
        })?;
        // The HelloAck is always the server's first message.
        match self.read_message()? {
            Message::HelloAck { credits, .. } => {
                self.credits = u64::from(credits);
                Ok(())
            }
            other => Err(io::Error::other(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Frames this client may currently send without waiting.
    pub fn credits(&self) -> u64 {
        self.credits
    }

    /// Times [`Self::send_batch`] had to block waiting for a credit
    /// grant — the client-visible face of server backpressure.
    pub fn credit_waits(&self) -> u64 {
        self.credit_waits
    }

    /// Batches the server refused with `QueueFull` (shard memory
    /// budget spent, or parked-batch cap reached); those frames were
    /// dropped.
    pub fn rejected_batches(&self) -> u64 {
        self.rejected_batches
    }

    /// `DetectionsDropped` notices received: congestion episodes in
    /// which the server shed detections because this client read too
    /// slowly (each notice covers one or more shed detections).
    pub fn drop_notices(&self) -> u64 {
        self.drop_notices
    }

    /// `Overloaded` refusals received: session binds (and any batch
    /// riding on them) turned away by server admission control.
    pub fn admission_rejections(&self) -> u64 {
        self.admission_rejections
    }

    /// Times this client successfully redialled after losing the
    /// connection (also counted process-wide as
    /// [`client_reconnects_total`]).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Eagerly opens a session (otherwise the first batch opens it).
    pub fn open_session(&mut self, session: u64) -> io::Result<()> {
        self.sessions.insert(session);
        self.with_reconnect(|c| c.send_message(&Message::OpenSession { session }))
    }

    /// Sends one batch of frames on `session`, blocking for a credit
    /// grant first if the window is exhausted. Batches must hold at
    /// most [`wire::MAX_BATCH_FRAMES`] frames.
    ///
    /// A lost connection is redialled under the retry budget and the
    /// batch re-sent; frames of a batch that failed mid-write may be
    /// lost (at-most-once transport).
    pub fn send_batch(&mut self, session: u64, frames: &[SkeletonFrame]) -> io::Result<()> {
        self.sessions.insert(session);
        self.with_reconnect(|c| {
            c.pump()?;
            if (frames.len() as u64) > c.credits {
                c.credit_waits += 1;
                while (frames.len() as u64) > c.credits {
                    let msg = c.read_message()?;
                    c.absorb(msg)?;
                }
            }
            c.credits -= frames.len() as u64;
            c.scratch.clear();
            wire::encode_frame_batch(session, frames, &mut c.scratch);
            let bytes = std::mem::take(&mut c.scratch);
            let res = c.stream.write_all(&bytes);
            c.scratch = bytes;
            res
        })
    }

    /// Closes `session`, blocking until the server confirms every
    /// queued frame of the session was processed (detections arriving
    /// meanwhile are collected for [`Self::take_detections`]).
    pub fn close_session(&mut self, session: u64) -> io::Result<()> {
        self.sessions.remove(&session);
        self.with_reconnect(|c| {
            c.send_message(&Message::CloseSession { session })?;
            while !c.closed_sessions.contains(&session) {
                let msg = c.read_message()?;
                c.absorb(msg)?;
            }
            c.closed_sessions.retain(|&s| s != session);
            Ok(())
        })
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        self.with_reconnect(|c| {
            let token = c.next_ping;
            c.next_ping += 1;
            c.send_message(&Message::Ping { token })?;
            while c.last_pong != Some(token) {
                let msg = c.read_message()?;
                c.absorb(msg)?;
            }
            Ok(())
        })
    }

    // ----- control plane (§8) ----------------------------------------

    /// Deploys query text on the engine (§8): parse, compile once,
    /// broadcast; on a durable server the op is journaled before the
    /// ack. Requires the edge to allow control. **Not** auto-retried
    /// across reconnects — redeploying bumps the plan version, so the
    /// caller must decide whether to replay an unacknowledged deploy.
    pub fn deploy_text(&mut self, text: &str) -> io::Result<()> {
        self.control(&Message::Deploy {
            text: text.to_owned(),
        })
    }

    /// Removes a deployed gesture (§8).
    pub fn undeploy(&mut self, name: &str) -> io::Result<()> {
        self.control(&Message::Undeploy {
            name: name.to_owned(),
        })
    }

    /// Sends one control message and blocks for its ack (acks arrive
    /// in send order on the connection, §8).
    fn control(&mut self, msg: &Message) -> io::Result<()> {
        self.send_message(msg)?;
        loop {
            if let Some(outcome) = self.control_acks.pop_front() {
                return match outcome {
                    None => Ok(()),
                    Some(e) => Err(io::Error::other(format!("control rejected: {e}"))),
                };
            }
            let msg = self.read_message()?;
            self.absorb(msg)?;
        }
    }

    /// Drains any detections the server has pushed so far without
    /// blocking.
    pub fn take_detections(&mut self) -> io::Result<Vec<WireDetection>> {
        self.pump()?;
        Ok(self.detections.drain(..).collect())
    }

    /// Ends the conversation cleanly: the server closes all remaining
    /// sessions (processing their queued frames), streams the final
    /// detections and hangs up. Returns every detection not yet taken.
    pub fn bye(mut self) -> io::Result<Vec<WireDetection>> {
        self.send_message(&Message::Bye)?;
        loop {
            match self.read_message() {
                Ok(msg) => self.absorb(msg)?,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            }
        }
        Ok(self.detections.into_iter().collect())
    }

    // ----- reconnect -------------------------------------------------

    /// Runs `op`; when it fails with a lost-connection error, redials
    /// (exponential backoff + jitter, bounded by the retry budget) and
    /// runs it again on the fresh connection.
    fn with_reconnect<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !is_disconnect(&err) {
                return Err(err);
            }
            loop {
                if attempt >= MAX_RETRIES {
                    return Err(err);
                }
                attempt += 1;
                std::thread::sleep(self.backoff(attempt));
                match self.redial() {
                    Ok(()) => break,
                    // Budget left: the next lap sleeps longer and
                    // tries again. Budget gone: report the original
                    // disconnect, the root cause.
                    Err(_) if attempt < MAX_RETRIES => continue,
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// One redial: fresh TCP connection, handshake, sessions re-opened.
    /// Bytes buffered from the dead connection (including any partial
    /// message) are discarded.
    fn redial(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addrs[..])?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.rbuf.clear();
        self.handshake()?;
        let sessions: Vec<u64> = self.sessions.iter().copied().collect();
        for session in sessions {
            self.send_message(&Message::OpenSession { session })?;
        }
        self.reconnects += 1;
        CLIENT_RECONNECTS.inc();
        Ok(())
    }

    /// Equal-jitter exponential backoff: half the capped exponential
    /// step fixed, half uniformly random, so a fleet of clients cut
    /// off by one restart does not redial in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = BASE_BACKOFF_MS << (attempt - 1);
        let capped = exp.min(MAX_BACKOFF_MS);
        let half = capped / 2;
        Duration::from_millis(half + self.next_jitter() % (half + 1))
    }

    /// Splitmix64 step — no RNG dependency needed for jitter.
    fn next_jitter(&mut self) -> u64 {
        self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    // ----- internals -------------------------------------------------

    fn send_message(&mut self, msg: &Message) -> io::Result<()> {
        self.scratch.clear();
        wire::encode(msg, &mut self.scratch);
        let bytes = std::mem::take(&mut self.scratch);
        let res = self.stream.write_all(&bytes);
        self.scratch = bytes;
        res
    }

    /// Reads whatever is available without blocking, up to a buffer
    /// full of whole messages, and absorbs it.
    fn pump(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let read_result = loop {
            match self.rbuf.read(&self.stream) {
                Ok(0) => break Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        read_result?;
        while let Some(msg) = self.try_decode()? {
            self.absorb(msg)?;
        }
        Ok(())
    }

    /// Blocks until one complete message arrives.
    fn read_message(&mut self) -> io::Result<Message> {
        loop {
            if let Some(msg) = self.try_decode()? {
                return Ok(msg);
            }
            match self.rbuf.read(&self.stream) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn try_decode(&mut self) -> io::Result<Option<Message>> {
        self.rbuf
            .decode()
            .map_err(|e| io::Error::other(format!("protocol error: {e}")))
    }

    /// Applies a server message to client state.
    fn absorb(&mut self, msg: Message) -> io::Result<()> {
        match msg {
            Message::Credit { frames } => {
                self.credits += u64::from(frames);
                Ok(())
            }
            Message::Detection(d) => {
                self.detections.push_back(d);
                Ok(())
            }
            Message::SessionClosed { session } => {
                self.closed_sessions.push(session);
                Ok(())
            }
            Message::Pong { token } => {
                self.last_pong = Some(token);
                Ok(())
            }
            Message::ControlAck { error } => {
                self.control_acks.push_back(error);
                Ok(())
            }
            Message::Error {
                code: ErrorCode::QueueFull,
                ..
            } => {
                // Non-fatal: that batch was dropped (memory budget or
                // parked-batch cap).
                self.rejected_batches += 1;
                Ok(())
            }
            Message::Error {
                code: ErrorCode::DetectionsDropped,
                ..
            } => {
                // Non-fatal notice (§7.1): this connection read too
                // slowly and at least one detection was shed since the
                // last notice.
                self.drop_notices += 1;
                Ok(())
            }
            Message::Error {
                code: ErrorCode::Overloaded,
                ..
            } => {
                // Non-fatal: a session bind (and the batch riding on
                // it, if any) was refused by admission control.
                self.admission_rejections += 1;
                Ok(())
            }
            Message::Error {
                code: code @ ErrorCode::Shutdown,
                detail,
            } => {
                // The server is going away: surface it as a connection
                // loss so the reconnect machinery redials (the restart
                // may already be underway).
                Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("server error: {code}: {detail}"),
                ))
            }
            Message::Error { code, detail } => {
                Err(io::Error::other(format!("server error: {code}: {detail}")))
            }
            Message::HelloAck { .. } => Err(io::Error::other("unexpected second HelloAck")),
            other => Err(io::Error::other(format!(
                "unexpected client-to-server message from server: {other:?}"
            ))),
        }
    }
}
