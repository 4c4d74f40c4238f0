//! The gesto wire protocol codec (`GSW1`).
//!
//! This module is the reference implementation of the binary protocol
//! specified normatively in `docs/PROTOCOL.md`; the two are kept in
//! lockstep by `tests/protocol_conformance.rs`, which cross-checks this
//! codec against byte layouts written out by hand from the spec. Third
//! parties implementing a client in another language should read the
//! spec; this module mirrors its section numbers in comments.
//!
//! Every message travels in a little-endian envelope
//! (`u32` body length, `u8` message type, payload). Frame batches are
//! **columnar**: per-joint coordinate lanes with validity bitmaps, laid
//! out so a decoded batch lands in the engine's `ColumnBlock` lanes via
//! [`gesto_kinect::KinectSlots::write_block`] without ever
//! materialising a per-frame `Vec<Value>`.

use std::fmt;
use std::io::{self, Read};

use gesto_kinect::{SkeletonFrame, Vec3, JOINT_COUNT};
use gesto_stream::{wire as value_wire, Value};

/// Protocol magic carried by [`Message::Hello`] (§2): ASCII `GSW1`.
pub const MAGIC: [u8; 4] = *b"GSW1";

/// Highest protocol version this codec speaks (§2).
pub const VERSION: u16 = 1;

/// Hello flag (§2): the client wants [`Message::Detection`] messages to
/// carry the matched event tuples, not just the gesture/timestamps.
pub const FLAG_WANT_EVENTS: u16 = 0x0001;

/// All flags this server understands; unknown flags are dropped during
/// negotiation (§2).
pub const SUPPORTED_FLAGS: u16 = FLAG_WANT_EVENTS;

/// Maximum envelope body length accepted by [`decode`] (§1).
pub const MAX_MESSAGE_LEN: u32 = 8 << 20;

/// Maximum frames per [`Message::FrameBatch`] accepted by [`decode`]
/// (§4).
pub const MAX_BATCH_FRAMES: u16 = 4096;

/// Protocol-level error codes carried by [`Message::Error`] (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer sent bytes that do not decode (also sent just before
    /// the server closes the connection).
    Malformed,
    /// The client's protocol version is not supported.
    UnsupportedVersion,
    /// The client sent more frames than its credit window allows.
    CreditExceeded,
    /// A batch was refused because the session's shard queue is full
    /// (only under the `Reject` backpressure policy); the batch is
    /// dropped, credit is still re-granted.
    QueueFull,
    /// The server is shutting down.
    Shutdown,
    /// A control message (deploy/undeploy) arrived but the edge was not
    /// started with
    /// [`NetConfig::allow_control`](super::NetConfig::allow_control).
    ControlDisabled,
    /// **Non-fatal notice** (§7.1): the server shed queued detection
    /// bytes for this connection because the client read too slowly.
    /// The stream resumes from the next detection; the gap is
    /// observable instead of silent.
    DetectionsDropped,
    /// **Non-fatal** (§7.1): admission control refused the request —
    /// a new session bind while the server is `Rejecting`, or a bind
    /// past the connection's session cap. Existing sessions on the
    /// connection are unaffected.
    Overloaded,
    /// An error code this codec version does not know.
    Unknown(u16),
}

impl ErrorCode {
    /// Wire representation (§7).
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::CreditExceeded => 3,
            ErrorCode::QueueFull => 4,
            ErrorCode::Shutdown => 5,
            ErrorCode::ControlDisabled => 6,
            ErrorCode::DetectionsDropped => 7,
            ErrorCode::Overloaded => 8,
            ErrorCode::Unknown(c) => c,
        }
    }

    /// Decodes a wire error code (§7); unknown codes are preserved.
    pub fn from_code(c: u16) -> Self {
        match c {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::CreditExceeded,
            4 => ErrorCode::QueueFull,
            5 => ErrorCode::Shutdown,
            6 => ErrorCode::ControlDisabled,
            7 => ErrorCode::DetectionsDropped,
            8 => ErrorCode::Overloaded,
            other => ErrorCode::Unknown(other),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Malformed => f.write_str("malformed message"),
            ErrorCode::UnsupportedVersion => f.write_str("unsupported protocol version"),
            ErrorCode::CreditExceeded => f.write_str("credit window exceeded"),
            ErrorCode::QueueFull => f.write_str("shard queue full, batch rejected"),
            ErrorCode::Shutdown => f.write_str("server shutting down"),
            ErrorCode::ControlDisabled => f.write_str("control plane disabled on this edge"),
            ErrorCode::DetectionsDropped => {
                f.write_str("detections shed for this slow-reading connection")
            }
            ErrorCode::Overloaded => f.write_str("admission refused: server overloaded"),
            ErrorCode::Unknown(c) => write!(f, "unknown error code {c}"),
        }
    }
}

/// A detection as it travels to the client (§5): attributed to the
/// client's own session id, with the matched events (when negotiated)
/// as rows of tagged scalar values in kinect-schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDetection {
    /// The client-chosen session id the detection belongs to.
    pub session: u64,
    /// Completion stream time (milliseconds).
    pub ts: i64,
    /// Stream time of the first matched event.
    pub started_at: i64,
    /// Gesture (query) name.
    pub gesture: String,
    /// Matched event tuples, one row of values per pattern step. Empty
    /// unless the connection negotiated [`FLAG_WANT_EVENTS`].
    pub events: Vec<Vec<Value>>,
}

/// A decoded protocol message (§1 lists the type bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// `0x01` client→server: opens the protocol (§2). Must be the first
    /// message on a connection; carries [`MAGIC`] on the wire.
    Hello {
        /// Highest version the client speaks.
        version: u16,
        /// Requested [`FLAG_WANT_EVENTS`]-style flags.
        flags: u16,
    },
    /// `0x02` client→server: eagerly creates session state (§3);
    /// otherwise a session opens on its first batch.
    OpenSession {
        /// Client-chosen session id (scoped to this connection).
        session: u64,
    },
    /// `0x03` client→server: a columnar batch of skeleton frames for
    /// one session (§4). Consumes `frames.len()` credits.
    FrameBatch {
        /// Client-chosen session id.
        session: u64,
        /// The decoded frames, in stream order.
        frames: Vec<SkeletonFrame>,
    },
    /// `0x04` client→server: closes a session (§3). The server answers
    /// with [`Message::SessionClosed`] once all of the session's queued
    /// frames are processed.
    CloseSession {
        /// Client-chosen session id.
        session: u64,
    },
    /// `0x05` client→server: liveness probe; echoed as
    /// [`Message::Pong`].
    Ping {
        /// Opaque token echoed back.
        token: u64,
    },
    /// `0x06` client→server: clean shutdown (§3) — the server closes
    /// every remaining session, flushes pending detections and closes
    /// the connection.
    Bye,
    /// `0x07` client→server: parses, compiles and deploys query text on
    /// the engine (§8). Requires the edge to allow control; answered
    /// with [`Message::ControlAck`] in connection FIFO order.
    Deploy {
        /// Query text (the `SELECT … MATCHING …;` language).
        text: String,
    },
    /// `0x08` client→server: removes a deployed gesture (§8).
    Undeploy {
        /// Gesture (query) name.
        name: String,
    },
    /// `0x81` server→client: accepts the protocol (§2); grants the
    /// initial credit window.
    HelloAck {
        /// Negotiated version (min of the two peers').
        version: u16,
        /// Accepted flags (requested ∩ [`SUPPORTED_FLAGS`]).
        flags: u16,
        /// Initial credit, in frames (§4).
        credits: u32,
    },
    /// `0x82` server→client: grants additional credit (§4), additive.
    Credit {
        /// Frames the client may now send on top of its remaining
        /// credit.
        frames: u32,
    },
    /// `0x83` server→client: a gesture was detected (§5).
    Detection(WireDetection),
    /// `0x84` server→client: a protocol-level error (§7).
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// `0x85` server→client: echo of a [`Message::Ping`].
    Pong {
        /// The token from the ping.
        token: u64,
    },
    /// `0x86` server→client: a session's close completed (§3); all its
    /// detections were already delivered (same-connection FIFO).
    SessionClosed {
        /// Client-chosen session id.
        session: u64,
    },
    /// `0x87` server→client: outcome of one control message (§8).
    /// Acks arrive in the order the control messages were sent on this
    /// connection, so no correlation token is needed.
    ControlAck {
        /// `None` on success; the engine's error text otherwise.
        error: Option<String>,
    },
}

/// Decoding failure: the peer sent bytes that are not a well-formed
/// protocol message. (An *incomplete* message is not an error — see
/// [`decode`].)
#[derive(Debug, Clone, PartialEq)]
pub enum NetWireError {
    /// Hello carried the wrong magic bytes.
    BadMagic([u8; 4]),
    /// An envelope length outside `1..=MAX_MESSAGE_LEN`.
    BadLength(u32),
    /// An unknown message type byte.
    BadType(u8),
    /// A frame-batch count above [`MAX_BATCH_FRAMES`].
    BatchTooLarge(u16),
    /// A structurally invalid payload.
    Malformed(&'static str),
    /// A scalar value inside a detection failed to decode.
    Value(value_wire::WireError),
}

impl fmt::Display for NetWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetWireError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?}"),
            NetWireError::BadLength(n) => write!(f, "invalid envelope length {n}"),
            NetWireError::BadType(t) => write!(f, "unknown message type 0x{t:02x}"),
            NetWireError::BatchTooLarge(n) => {
                write!(f, "frame batch of {n} frames exceeds {MAX_BATCH_FRAMES}")
            }
            NetWireError::Malformed(what) => write!(f, "malformed message: {what}"),
            NetWireError::Value(e) => write!(f, "malformed detection value: {e}"),
        }
    }
}

impl std::error::Error for NetWireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetWireError::Value(e) => Some(e),
            _ => None,
        }
    }
}

impl From<value_wire::WireError> for NetWireError {
    fn from(e: value_wire::WireError) -> Self {
        NetWireError::Value(e)
    }
}

// ----- encoding -----------------------------------------------------

/// Appends the full envelope (`len | type | payload`) of `msg` to
/// `buf`.
pub fn encode(msg: &Message, buf: &mut Vec<u8>) {
    match msg {
        Message::FrameBatch { session, frames } => encode_frame_batch(*session, frames, buf),
        _ => {
            let start = begin(buf, type_byte(msg));
            match msg {
                Message::Hello { version, flags } => {
                    buf.extend_from_slice(&MAGIC);
                    buf.extend_from_slice(&version.to_le_bytes());
                    buf.extend_from_slice(&flags.to_le_bytes());
                }
                Message::OpenSession { session }
                | Message::CloseSession { session }
                | Message::SessionClosed { session } => {
                    buf.extend_from_slice(&session.to_le_bytes());
                }
                Message::Ping { token } | Message::Pong { token } => {
                    buf.extend_from_slice(&token.to_le_bytes());
                }
                Message::Bye => {}
                Message::Deploy { text } => write_str16(buf, text),
                Message::Undeploy { name } => write_str16(buf, name),
                Message::ControlAck { error } => {
                    buf.push(error.is_none() as u8);
                    write_str16(buf, error.as_deref().unwrap_or(""));
                }
                Message::HelloAck {
                    version,
                    flags,
                    credits,
                } => {
                    buf.extend_from_slice(&version.to_le_bytes());
                    buf.extend_from_slice(&flags.to_le_bytes());
                    buf.extend_from_slice(&credits.to_le_bytes());
                }
                Message::Credit { frames } => {
                    buf.extend_from_slice(&frames.to_le_bytes());
                }
                Message::Detection(d) => encode_detection_body(d, buf),
                Message::Error { code, detail } => {
                    buf.extend_from_slice(&code.code().to_le_bytes());
                    write_str16(buf, detail);
                }
                Message::FrameBatch { .. } => unreachable!("handled above"),
            }
            finish(buf, start);
        }
    }
}

/// Appends a `FrameBatch` envelope for `frames` without requiring an
/// owned `Message` — the client hot path (§4 layout).
pub fn encode_frame_batch(session: u64, frames: &[SkeletonFrame], buf: &mut Vec<u8>) {
    assert!(
        frames.len() <= MAX_BATCH_FRAMES as usize,
        "batch of {} frames exceeds MAX_BATCH_FRAMES ({MAX_BATCH_FRAMES}); split it",
        frames.len()
    );
    let n = frames.len();
    let start = begin(buf, 0x03);
    buf.extend_from_slice(&session.to_le_bytes());
    buf.extend_from_slice(&(n as u16).to_le_bytes());
    // Timestamp and player lanes.
    for f in frames {
        buf.extend_from_slice(&f.ts.to_le_bytes());
    }
    for f in frames {
        buf.extend_from_slice(&f.player.to_le_bytes());
    }
    // Joint mask: which joints have any tracked sample in this batch.
    let mut mask = 0u16;
    for f in frames {
        for (k, j) in f.joints.iter().enumerate() {
            if j.is_some() {
                mask |= 1 << k;
            }
        }
    }
    buf.extend_from_slice(&mask.to_le_bytes());
    // Per present joint: validity bitmap (LSB-first), then packed
    // x/y/z triples for the valid rows only.
    let bitmap_len = n.div_ceil(8);
    for k in 0..JOINT_COUNT {
        if mask & (1 << k) == 0 {
            continue;
        }
        let bitmap_at = buf.len();
        buf.resize(bitmap_at + bitmap_len, 0);
        for (r, f) in frames.iter().enumerate() {
            if f.joints[k].is_some() {
                buf[bitmap_at + r / 8] |= 1 << (r % 8);
            }
        }
        for f in frames {
            if let Some(p) = f.joints[k] {
                buf.extend_from_slice(&p.x.to_bits().to_le_bytes());
                buf.extend_from_slice(&p.y.to_bits().to_le_bytes());
                buf.extend_from_slice(&p.z.to_bits().to_le_bytes());
            }
        }
    }
    finish(buf, start);
}

fn encode_detection_body(d: &WireDetection, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&d.session.to_le_bytes());
    buf.extend_from_slice(&d.ts.to_le_bytes());
    buf.extend_from_slice(&d.started_at.to_le_bytes());
    write_str16(buf, &d.gesture);
    buf.extend_from_slice(&(d.events.len() as u16).to_le_bytes());
    for row in &d.events {
        buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for v in row {
            value_wire::write_value(buf, v);
        }
    }
}

/// Reserves the envelope header, returning the patch position.
fn begin(buf: &mut Vec<u8>, ty: u8) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, ty]);
    start
}

/// Backpatches the envelope length (type byte + payload).
fn finish(buf: &mut [u8], start: usize) {
    let body = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body.to_le_bytes());
}

fn write_str16(buf: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&s.as_bytes()[..len]);
}

fn type_byte(msg: &Message) -> u8 {
    match msg {
        Message::Hello { .. } => 0x01,
        Message::OpenSession { .. } => 0x02,
        Message::FrameBatch { .. } => 0x03,
        Message::CloseSession { .. } => 0x04,
        Message::Ping { .. } => 0x05,
        Message::Bye => 0x06,
        Message::Deploy { .. } => 0x07,
        Message::Undeploy { .. } => 0x08,
        Message::HelloAck { .. } => 0x81,
        Message::Credit { .. } => 0x82,
        Message::Detection(_) => 0x83,
        Message::Error { .. } => 0x84,
        Message::Pong { .. } => 0x85,
        Message::SessionClosed { .. } => 0x86,
        Message::ControlAck { .. } => 0x87,
    }
}

// ----- decoding -----------------------------------------------------

/// Decodes the first complete message at the start of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a message (read
/// more bytes and retry), or `Ok(Some((message, consumed)))` — the
/// caller drops `consumed` bytes and may call again for pipelined
/// messages. Errors are fatal for the connection: framing cannot be
/// resynchronised after a malformed envelope.
pub fn decode(buf: &[u8]) -> Result<Option<(Message, usize)>, NetWireError> {
    let Some(total) = envelope_len(buf)?.filter(|&total| total <= buf.len()) else {
        return Ok(None);
    };
    let msg = decode_body(buf[4], &buf[5..total])?;
    Ok(Some((msg, total)))
}

/// Length of the whole envelope at the start of `buf`, read from its
/// header; `None` while fewer than four bytes are in.
fn envelope_len(buf: &[u8]) -> Result<Option<usize>, NetWireError> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let body_len = u32::from_le_bytes(header.try_into().expect("4 bytes"));
    if body_len == 0 || body_len > MAX_MESSAGE_LEN {
        return Err(NetWireError::BadLength(body_len));
    }
    Ok(Some(4 + body_len as usize))
}

/// Bytes one read pass takes from one connection, for fairness between
/// connections; a [`ReadBuf`] doubles up to this size.
pub(crate) const MAX_PER_PASS: usize = 256 * 1024;

/// The receive buffer of either end of a connection: a window
/// `start..end` of unread bytes over a buffer that is zeroed only when
/// it grows. [`Self::read`] reads straight into the free tail and
/// [`Self::decode`] decodes where the bytes landed, advancing `start`;
/// a window decoded to its end starts again at offset 0. The unread
/// bytes move to the front only when the tail is empty and they are one
/// partial message, so a read pass moves at most one partial message.
/// Otherwise an empty tail doubles the buffer from 4 KiB up to
/// [`MAX_PER_PASS`], past which it grows only as far as the pending
/// message needs.
pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// An empty buffer at its 4 KiB start size.
    pub(crate) fn new() -> Self {
        ReadBuf {
            buf: vec![0; 4096],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read and not yet decoded.
    pub(crate) fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Drops the unread bytes.
    pub(crate) fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// One `read` from `src` into the free tail, making room first if
    /// the tail is empty. `WouldBlock` when no room can be made (whole
    /// messages fill the buffer at its largest): decode first.
    pub(crate) fn read(&mut self, mut src: impl Read) -> io::Result<usize> {
        if self.end == self.buf.len() && !self.make_room() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pops the next complete message off the window ([`decode`]).
    pub(crate) fn decode(&mut self) -> Result<Option<Message>, NetWireError> {
        let Some((msg, used)) = decode(self.unread())? else {
            return Ok(None);
        };
        self.start += used;
        if self.start == self.end {
            self.clear();
        }
        Ok(Some(msg))
    }

    /// Frees tail space for a read; `false` when whole messages fill
    /// the buffer at its largest.
    fn make_room(&mut self) -> bool {
        let unread = self.end - self.start;
        // A header that is not a valid envelope (an HTTP request head)
        // sizes nothing.
        let need = envelope_len(self.unread()).ok().flatten();
        if self.start > 0 && need.is_none_or(|n| n > unread) {
            self.buf.copy_within(self.start..self.end, 0);
            self.start = 0;
            self.end = unread;
            return true;
        }
        let len = (2 * self.buf.len()).min(MAX_PER_PASS.max(need.unwrap_or(0)));
        if len <= self.buf.len() {
            return false;
        }
        self.buf.resize(len, 0);
        true
    }
}

fn decode_body(ty: u8, p: &[u8]) -> Result<Message, NetWireError> {
    let mut pos = 0usize;
    let msg = match ty {
        0x01 => {
            let magic: [u8; 4] = take(p, &mut pos, 4)?.try_into().expect("4 bytes");
            if magic != MAGIC {
                return Err(NetWireError::BadMagic(magic));
            }
            Message::Hello {
                version: get_u16(p, &mut pos)?,
                flags: get_u16(p, &mut pos)?,
            }
        }
        0x02 => Message::OpenSession {
            session: get_u64(p, &mut pos)?,
        },
        0x03 => decode_frame_batch(p, &mut pos)?,
        0x04 => Message::CloseSession {
            session: get_u64(p, &mut pos)?,
        },
        0x05 => Message::Ping {
            token: get_u64(p, &mut pos)?,
        },
        0x06 => Message::Bye,
        0x07 => Message::Deploy {
            text: read_str16(p, &mut pos)?,
        },
        0x08 => Message::Undeploy {
            name: read_str16(p, &mut pos)?,
        },
        0x81 => Message::HelloAck {
            version: get_u16(p, &mut pos)?,
            flags: get_u16(p, &mut pos)?,
            credits: get_u32(p, &mut pos)?,
        },
        0x82 => Message::Credit {
            frames: get_u32(p, &mut pos)?,
        },
        0x83 => {
            let session = get_u64(p, &mut pos)?;
            let ts = get_u64(p, &mut pos)? as i64;
            let started_at = get_u64(p, &mut pos)? as i64;
            let gesture = read_str16(p, &mut pos)?;
            let event_count = get_u16(p, &mut pos)? as usize;
            let mut events = Vec::with_capacity(event_count.min(256));
            for _ in 0..event_count {
                let vals = get_u16(p, &mut pos)? as usize;
                let mut row = Vec::with_capacity(vals.min(256));
                for _ in 0..vals {
                    row.push(value_wire::read_value(p, &mut pos)?);
                }
                events.push(row);
            }
            Message::Detection(WireDetection {
                session,
                ts,
                started_at,
                gesture,
                events,
            })
        }
        0x84 => Message::Error {
            code: ErrorCode::from_code(get_u16(p, &mut pos)?),
            detail: read_str16(p, &mut pos)?,
        },
        0x85 => Message::Pong {
            token: get_u64(p, &mut pos)?,
        },
        0x86 => Message::SessionClosed {
            session: get_u64(p, &mut pos)?,
        },
        0x87 => {
            let ok = take(p, &mut pos, 1)?[0];
            let detail = read_str16(p, &mut pos)?;
            Message::ControlAck {
                error: match ok {
                    1 => None,
                    0 => Some(detail),
                    _ => return Err(NetWireError::Malformed("bad control ack flag")),
                },
            }
        }
        other => return Err(NetWireError::BadType(other)),
    };
    if pos != p.len() {
        return Err(NetWireError::Malformed("trailing bytes in message body"));
    }
    Ok(msg)
}

fn decode_frame_batch(p: &[u8], pos: &mut usize) -> Result<Message, NetWireError> {
    let session = get_u64(p, pos)?;
    let count = get_u16(p, pos)?;
    if count > MAX_BATCH_FRAMES {
        return Err(NetWireError::BatchTooLarge(count));
    }
    let n = count as usize;
    // The ts and player lanes must be in before `count` frames exist.
    if p.len() - *pos < 16 * n {
        return Err(NetWireError::Malformed("message body truncated"));
    }
    let mut frames = vec![SkeletonFrame::empty(0, 0); n];
    for f in frames.iter_mut() {
        f.ts = get_u64(p, pos)? as i64;
    }
    for f in frames.iter_mut() {
        f.player = get_u64(p, pos)? as i64;
    }
    let mask = get_u16(p, pos)?;
    if mask >> JOINT_COUNT != 0 {
        return Err(NetWireError::Malformed("joint mask has unknown bits"));
    }
    let bitmap_len = n.div_ceil(8);
    for k in 0..JOINT_COUNT {
        if mask & (1 << k) == 0 {
            continue;
        }
        let bitmap = take(p, pos, bitmap_len)?;
        // The coordinate block follows the bitmap; walk both in step.
        let valid = bitmap
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum::<usize>();
        let coords = take(p, pos, valid * 24)?;
        let mut c = 0usize;
        for r in 0..n {
            if bitmap[r / 8] & (1 << (r % 8)) == 0 {
                continue;
            }
            let x = f64::from_bits(u64::from_le_bytes(
                coords[c..c + 8].try_into().expect("8 bytes"),
            ));
            let y = f64::from_bits(u64::from_le_bytes(
                coords[c + 8..c + 16].try_into().expect("8 bytes"),
            ));
            let z = f64::from_bits(u64::from_le_bytes(
                coords[c + 16..c + 24].try_into().expect("8 bytes"),
            ));
            frames[r].joints[k] = Some(Vec3::new(x, y, z));
            c += 24;
        }
    }
    Ok(Message::FrameBatch { session, frames })
}

fn take<'a>(p: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], NetWireError> {
    let end = pos
        .checked_add(n)
        .ok_or(NetWireError::Malformed("length overflow"))?;
    let s = p
        .get(*pos..end)
        .ok_or(NetWireError::Malformed("message body truncated"))?;
    *pos = end;
    Ok(s)
}

fn get_u16(p: &[u8], pos: &mut usize) -> Result<u16, NetWireError> {
    Ok(u16::from_le_bytes(
        take(p, pos, 2)?.try_into().expect("2 bytes"),
    ))
}

fn get_u32(p: &[u8], pos: &mut usize) -> Result<u32, NetWireError> {
    Ok(u32::from_le_bytes(
        take(p, pos, 4)?.try_into().expect("4 bytes"),
    ))
}

fn get_u64(p: &[u8], pos: &mut usize) -> Result<u64, NetWireError> {
    Ok(u64::from_le_bytes(
        take(p, pos, 8)?.try_into().expect("8 bytes"),
    ))
}

fn read_str16(p: &[u8], pos: &mut usize) -> Result<String, NetWireError> {
    let len = get_u16(p, pos)? as usize;
    let bytes = take(p, pos, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| NetWireError::Malformed("string is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in: hands out `data` at most `chunk` bytes a
    /// read, then reports `WouldBlock`.
    struct Chunked {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.at == self.data.len() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.chunk.min(out.len()).min(self.data.len() - self.at);
            out[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn frames(n: usize, joints: usize) -> Vec<SkeletonFrame> {
        (0..n)
            .map(|i| {
                let mut f = SkeletonFrame::empty(1000 + 33 * i as i64, 1);
                for k in 0..joints {
                    if (i + k) % 3 != 0 {
                        f.joints[k] = Some(Vec3::new(i as f64, -(k as f64), 0.5));
                    }
                }
                f
            })
            .collect()
    }

    fn encode_all(msgs: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for m in msgs {
            encode(m, &mut bytes);
        }
        bytes
    }

    /// Decodes what `rb` holds, then reads `src` dry, decoding after
    /// every read.
    fn read_all(rb: &mut ReadBuf, src: &mut Chunked) -> Vec<Message> {
        let mut got = Vec::new();
        loop {
            while let Some(m) = rb.decode().expect("valid stream") {
                got.push(m);
            }
            match rb.read(&mut *src) {
                Ok(n) => assert!(n > 0, "a read into an empty tail"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return got,
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn every_read_split_yields_the_same_messages() {
        let msgs = vec![
            Message::Ping { token: 1 },
            Message::FrameBatch {
                session: 7,
                frames: frames(30, 3),
            },
            Message::Detection(WireDetection {
                session: 7,
                ts: 2000,
                started_at: 1500,
                gesture: "swipe_right".to_owned(),
                events: vec![
                    vec![Value::Int(-7), Value::Float(1.5), Value::Null],
                    vec![Value::Str("é".to_owned()), Value::Bool(true)],
                ],
            }),
            Message::Ping { token: 2 },
            Message::Pong { token: 3 },
        ];
        let data = encode_all(&msgs);
        for chunk in 1..=data.len() {
            let mut src = Chunked {
                data: data.clone(),
                at: 0,
                chunk,
            };
            let mut rb = ReadBuf::new();
            assert_eq!(read_all(&mut rb, &mut src), msgs, "chunk {chunk}");
            assert!(rb.unread().is_empty());
        }
    }

    #[test]
    fn a_message_larger_than_the_start_size_is_assembled() {
        let msgs = vec![Message::FrameBatch {
            session: 1,
            frames: frames(200, JOINT_COUNT),
        }];
        let data = encode_all(&msgs);
        let mut rb = ReadBuf::new();
        assert!(data.len() > rb.buf.len());
        let mut src = Chunked {
            data,
            at: 0,
            chunk: 1000,
        };
        assert_eq!(read_all(&mut rb, &mut src), msgs);
    }

    #[test]
    fn compaction_keeps_a_partial_message_intact() {
        // Pings fill the first read up to a batch that straddles the
        // end of the 4 KiB buffer.
        let batch = Message::FrameBatch {
            session: 3,
            frames: frames(8, 4),
        };
        let mut msgs = vec![Message::Ping { token: 0 }; 4000 / 13];
        msgs.push(batch);
        let data = encode_all(&msgs);
        let mut src = Chunked {
            data,
            at: 0,
            chunk: 4096,
        };
        let mut rb = ReadBuf::new();
        assert_eq!(rb.read(&mut src).unwrap(), 4096);
        let mut pings = 0;
        while let Some(m) = rb.decode().unwrap() {
            assert_eq!(m, Message::Ping { token: 0 });
            pings += 1;
        }
        let partial = rb.unread().to_vec();
        assert!(rb.start > 0 && !partial.is_empty());
        // The tail is empty: the next read moves the partial batch to
        // the front instead of growing the buffer.
        rb.read(&mut src).unwrap();
        assert_eq!((rb.start, rb.buf.len()), (0, 4096));
        assert_eq!(&rb.buf[..partial.len()], &partial[..]);
        let rest = read_all(&mut rb, &mut src);
        assert_eq!(pings + rest.len(), msgs.len());
        assert_eq!(rest.last(), msgs.last());
    }

    #[test]
    fn a_drained_buffer_reads_again_from_offset_0() {
        let data = encode_all(&[Message::Ping { token: 1 }, Message::Pong { token: 2 }]);
        let mut src = Chunked {
            data,
            at: 0,
            chunk: 13,
        };
        let mut rb = ReadBuf::new();
        assert_eq!(rb.read(&mut src).unwrap(), 13);
        assert_eq!(rb.decode().unwrap(), Some(Message::Ping { token: 1 }));
        assert_eq!((rb.start, rb.end), (0, 0));
        assert_eq!(rb.read(&mut src).unwrap(), 13);
        assert_eq!((rb.start, rb.end), (0, 13));
        assert_eq!(rb.decode().unwrap(), Some(Message::Pong { token: 2 }));
    }
}
