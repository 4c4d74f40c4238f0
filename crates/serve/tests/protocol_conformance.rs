//! Conformance suite tying the `gesto_serve::net::wire` codec to the
//! normative spec in `docs/PROTOCOL.md`.
//!
//! Every golden byte string below is written out **by hand from the
//! spec's byte-layout diagrams**, never produced by the codec under
//! test — if an edit to the codec changes the wire format, these tests
//! fail until the spec (and the goldens) are updated with it. Section
//! references (§N) match the spec.

use gesto_kinect::{SkeletonFrame, Vec3};
use gesto_serve::net::wire::{
    decode, encode, encode_frame_batch, ErrorCode, Message, NetWireError, WireDetection,
    FLAG_WANT_EVENTS, MAX_BATCH_FRAMES, VERSION,
};
use gesto_stream::Value;

/// Hand-builds an envelope (§1): `u32 len (LE) | u8 type | payload`,
/// where `len` counts the type byte plus the payload.
fn envelope(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
    out.push(ty);
    out.extend_from_slice(payload);
    out
}

/// Asserts both directions against a golden byte string: the codec
/// encodes `msg` to exactly `golden`, and decodes `golden` back to
/// `msg` consuming every byte.
fn assert_golden(msg: &Message, golden: &[u8]) {
    let mut encoded = Vec::new();
    encode(msg, &mut encoded);
    assert_eq!(encoded, golden, "encoding of {msg:?} diverged from spec");
    let (decoded, consumed) = decode(golden).expect("golden decodes").expect("complete");
    assert_eq!(consumed, golden.len());
    assert_eq!(&decoded, msg);
}

// ----- §2: handshake -------------------------------------------------

#[test]
fn hello_layout_matches_spec() {
    // §2: magic "GSW1", u16 version, u16 flags.
    let mut p = Vec::new();
    p.extend_from_slice(b"GSW1");
    p.extend_from_slice(&1u16.to_le_bytes());
    p.extend_from_slice(&FLAG_WANT_EVENTS.to_le_bytes());
    assert_golden(
        &Message::Hello {
            version: VERSION,
            flags: FLAG_WANT_EVENTS,
        },
        &envelope(0x01, &p),
    );
}

#[test]
fn hello_ack_layout_matches_spec() {
    // §2: u16 version, u16 flags, u32 credits.
    let mut p = Vec::new();
    p.extend_from_slice(&1u16.to_le_bytes());
    p.extend_from_slice(&0u16.to_le_bytes());
    p.extend_from_slice(&4096u32.to_le_bytes());
    assert_golden(
        &Message::HelloAck {
            version: 1,
            flags: 0,
            credits: 4096,
        },
        &envelope(0x81, &p),
    );
}

#[test]
fn bad_magic_is_rejected() {
    let mut p = Vec::new();
    p.extend_from_slice(b"BAD1");
    p.extend_from_slice(&1u16.to_le_bytes());
    p.extend_from_slice(&0u16.to_le_bytes());
    assert!(matches!(
        decode(&envelope(0x01, &p)),
        Err(NetWireError::BadMagic(_))
    ));
}

// ----- §3: session lifecycle ----------------------------------------

#[test]
fn session_messages_layout_matches_spec() {
    // §3: a single u64 session id each.
    let sid = 0x0123_4567_89ab_cdefu64;
    assert_golden(
        &Message::OpenSession { session: sid },
        &envelope(0x02, &sid.to_le_bytes()),
    );
    assert_golden(
        &Message::CloseSession { session: sid },
        &envelope(0x04, &sid.to_le_bytes()),
    );
    assert_golden(
        &Message::SessionClosed { session: sid },
        &envelope(0x86, &sid.to_le_bytes()),
    );
    // §3: Bye has an empty payload — the minimal envelope.
    assert_golden(&Message::Bye, &envelope(0x06, &[]));
}

#[test]
fn ping_pong_layout_matches_spec() {
    let token = 0xdead_beefu64;
    assert_golden(
        &Message::Ping { token },
        &envelope(0x05, &token.to_le_bytes()),
    );
    assert_golden(
        &Message::Pong { token },
        &envelope(0x85, &token.to_le_bytes()),
    );
}

// ----- §4: frame batches and credit ---------------------------------

/// The §4 worked example: 3 frames, head (joint 0) tracked in frames
/// 0 and 2, left elbow (joint 3) tracked in frame 1 only.
fn example_batch_frames() -> Vec<SkeletonFrame> {
    let mut f0 = SkeletonFrame::empty(1000, 1);
    f0.joints[0] = Some(Vec3::new(1.5, -2.25, 3.0));
    let mut f1 = SkeletonFrame::empty(1033, 1);
    f1.joints[3] = Some(Vec3::new(0.125, 4.5, -0.5));
    let mut f2 = SkeletonFrame::empty(1066, 1);
    f2.joints[0] = Some(Vec3::new(-1.0, 2.0, 0.0));
    vec![f0, f1, f2]
}

#[test]
fn frame_batch_layout_matches_spec() {
    // §4 layout: u64 session | u16 count | count × u64 ts |
    // count × u64 player | u16 joint mask | per set mask bit:
    // ceil(count/8)-byte LSB-first validity bitmap, then 3 × u64
    // f64-bit coordinates per *valid* row, row order.
    let mut p = Vec::new();
    p.extend_from_slice(&42u64.to_le_bytes());
    p.extend_from_slice(&3u16.to_le_bytes());
    for ts in [1000u64, 1033, 1066] {
        p.extend_from_slice(&ts.to_le_bytes());
    }
    for player in [1u64, 1, 1] {
        p.extend_from_slice(&player.to_le_bytes());
    }
    // Joints 0 and 3 appear somewhere in the batch: mask 0b1001.
    p.extend_from_slice(&0b1001u16.to_le_bytes());
    // Joint 0: valid in rows 0 and 2 → bitmap 0b101.
    p.push(0b101);
    for c in [1.5f64, -2.25, 3.0, -1.0, 2.0, 0.0] {
        p.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    // Joint 3: valid in row 1 only → bitmap 0b010.
    p.push(0b010);
    for c in [0.125f64, 4.5, -0.5] {
        p.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    let golden = envelope(0x03, &p);

    let frames = example_batch_frames();
    let mut encoded = Vec::new();
    encode_frame_batch(42, &frames, &mut encoded);
    assert_eq!(encoded, golden, "batch encoding diverged from §4 layout");

    let (decoded, consumed) = decode(&golden).unwrap().unwrap();
    assert_eq!(consumed, golden.len());
    assert_eq!(
        decoded,
        Message::FrameBatch {
            session: 42,
            frames
        }
    );
}

#[test]
fn frame_coordinates_survive_bit_exactly() {
    // §4: coordinates travel as raw IEEE-754 bits, so even the oddest
    // representable values round-trip unchanged.
    let mut f = SkeletonFrame::empty(7, 2);
    f.joints[14] = Some(Vec3::new(f64::MIN_POSITIVE, -0.0, f64::MAX));
    let mut buf = Vec::new();
    encode_frame_batch(9, std::slice::from_ref(&f), &mut buf);
    let (msg, _) = decode(&buf).unwrap().unwrap();
    let Message::FrameBatch { frames, .. } = msg else {
        panic!("wrong message");
    };
    let got = frames[0].joints[14].unwrap();
    assert_eq!(got.x.to_bits(), f64::MIN_POSITIVE.to_bits());
    assert_eq!(got.y.to_bits(), (-0.0f64).to_bits());
    assert!(got.y.is_sign_negative(), "negative zero preserved");
    assert_eq!(got.z.to_bits(), f64::MAX.to_bits());
}

#[test]
fn credit_layout_matches_spec() {
    // §4: u32 frame grant.
    assert_golden(
        &Message::Credit { frames: 1024 },
        &envelope(0x82, &1024u32.to_le_bytes()),
    );
}

#[test]
fn oversized_batch_is_rejected() {
    // §4: counts above MAX_BATCH_FRAMES are a protocol error even
    // before the lanes are examined.
    let mut p = Vec::new();
    p.extend_from_slice(&1u64.to_le_bytes());
    p.extend_from_slice(&(MAX_BATCH_FRAMES + 1).to_le_bytes());
    assert!(matches!(
        decode(&envelope(0x03, &p)),
        Err(NetWireError::BatchTooLarge(n)) if n == MAX_BATCH_FRAMES + 1
    ));
}

#[test]
fn a_batch_whose_lanes_cannot_fit_is_refused() {
    // §4: a 15-byte message claiming MAX_BATCH_FRAMES frames carries
    // none of their 16-byte ts + player rows; it is refused from the
    // count alone, before any frame is built.
    let mut p = Vec::new();
    p.extend_from_slice(&1u64.to_le_bytes());
    p.extend_from_slice(&MAX_BATCH_FRAMES.to_le_bytes());
    let msg = envelope(0x03, &p);
    assert_eq!(msg.len(), 15);
    assert_eq!(
        decode(&msg),
        Err(NetWireError::Malformed("message body truncated"))
    );
}

#[test]
fn unknown_joint_mask_bits_are_rejected() {
    // §4: bits 15.. of the joint mask are reserved.
    let mut p = Vec::new();
    p.extend_from_slice(&1u64.to_le_bytes());
    p.extend_from_slice(&1u16.to_le_bytes());
    p.extend_from_slice(&0u64.to_le_bytes()); // ts lane
    p.extend_from_slice(&0u64.to_le_bytes()); // player lane
    p.extend_from_slice(&0x8000u16.to_le_bytes()); // reserved bit 15
    assert!(matches!(
        decode(&envelope(0x03, &p)),
        Err(NetWireError::Malformed(_))
    ));
}

// ----- §5/§6: detections and scalar values ---------------------------

#[test]
fn detection_layout_matches_spec() {
    // §5: u64 session | i64 ts | i64 started_at | u16-prefixed gesture
    // name | u16 row count | rows of (u16 value count, §6 tagged
    // values).
    let mut p = Vec::new();
    p.extend_from_slice(&5u64.to_le_bytes());
    p.extend_from_slice(&2000i64.to_le_bytes());
    p.extend_from_slice(&1500i64.to_le_bytes());
    p.extend_from_slice(&5u16.to_le_bytes());
    p.extend_from_slice(b"swipe");
    p.extend_from_slice(&1u16.to_le_bytes()); // one event row
    p.extend_from_slice(&3u16.to_le_bytes()); // of three values
    p.push(0x01); // §6: Int tag
    p.extend_from_slice(&(-7i64).to_le_bytes());
    p.push(0x02); // §6: Float tag, IEEE-754 bits
    p.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
    p.push(0x00); // §6: Null tag
    assert_golden(
        &Message::Detection(WireDetection {
            session: 5,
            ts: 2000,
            started_at: 1500,
            gesture: "swipe".to_owned(),
            events: vec![vec![Value::Int(-7), Value::Float(1.5), Value::Null]],
        }),
        &envelope(0x83, &p),
    );
}

// ----- §8: control plane ---------------------------------------------

#[test]
fn control_messages_layout_matches_spec() {
    // §8: Deploy carries a u16-prefixed UTF-8 query text.
    let text = r#"SELECT "hi" MATCHING kinect(x > 1);"#;
    let mut p = Vec::new();
    p.extend_from_slice(&(text.len() as u16).to_le_bytes());
    p.extend_from_slice(text.as_bytes());
    assert_golden(
        &Message::Deploy {
            text: text.to_owned(),
        },
        &envelope(0x07, &p),
    );
    // §8: Undeploy carries a u16-prefixed gesture name.
    let mut p = Vec::new();
    p.extend_from_slice(&2u16.to_le_bytes());
    p.extend_from_slice(b"hi");
    assert_golden(
        &Message::Undeploy {
            name: "hi".to_owned(),
        },
        &envelope(0x08, &p),
    );
}

#[test]
fn control_ack_layout_matches_spec() {
    // §8: u8 ok flag (1 = success), u16-prefixed detail (empty on
    // success).
    let mut p = vec![1u8];
    p.extend_from_slice(&0u16.to_le_bytes());
    assert_golden(&Message::ControlAck { error: None }, &envelope(0x87, &p));

    let mut p = vec![0u8];
    p.extend_from_slice(&9u16.to_le_bytes());
    p.extend_from_slice(b"bad query");
    assert_golden(
        &Message::ControlAck {
            error: Some("bad query".to_owned()),
        },
        &envelope(0x87, &p),
    );
    // Flag bytes other than 0 and 1 are reserved.
    let mut p = vec![2u8];
    p.extend_from_slice(&0u16.to_le_bytes());
    assert!(matches!(
        decode(&envelope(0x87, &p)),
        Err(NetWireError::Malformed(_))
    ));
}

// ----- §7: errors ----------------------------------------------------

#[test]
fn error_layout_and_codes_match_spec() {
    // §7: u16 code, u16-prefixed UTF-8 detail.
    let mut p = Vec::new();
    p.extend_from_slice(&4u16.to_le_bytes());
    p.extend_from_slice(&4u16.to_le_bytes());
    p.extend_from_slice(b"full");
    assert_golden(
        &Message::Error {
            code: ErrorCode::QueueFull,
            detail: "full".to_owned(),
        },
        &envelope(0x84, &p),
    );
    // §7 code table.
    assert_eq!(ErrorCode::Malformed.code(), 1);
    assert_eq!(ErrorCode::UnsupportedVersion.code(), 2);
    assert_eq!(ErrorCode::CreditExceeded.code(), 3);
    assert_eq!(ErrorCode::QueueFull.code(), 4);
    assert_eq!(ErrorCode::Shutdown.code(), 5);
    assert_eq!(ErrorCode::ControlDisabled.code(), 6);
    for c in [1u16, 2, 3, 4, 5, 6, 999] {
        assert_eq!(ErrorCode::from_code(c).code(), c, "codes round-trip");
    }
}

// ----- §1: envelope discipline ---------------------------------------

#[test]
fn every_truncation_is_incomplete_not_an_error() {
    // §1: a prefix of a valid message must never be mistaken for a
    // malformed one — the receiver waits for more bytes.
    let mut full = Vec::new();
    encode_frame_batch(3, &example_batch_frames(), &mut full);
    for cut in 0..full.len() {
        assert!(
            matches!(decode(&full[..cut]), Ok(None)),
            "prefix of {cut} bytes must be incomplete"
        );
    }
}

#[test]
fn pipelined_messages_decode_in_sequence() {
    // §1: messages are simply concatenated; each decode consumes
    // exactly one.
    let mut buf = Vec::new();
    encode(&Message::Ping { token: 1 }, &mut buf);
    encode_frame_batch(2, &example_batch_frames(), &mut buf);
    encode(&Message::Bye, &mut buf);
    let mut rest = &buf[..];
    let mut seen = Vec::new();
    while let Some((msg, n)) = decode(rest).unwrap() {
        seen.push(msg);
        rest = &rest[n..];
    }
    assert!(rest.is_empty());
    assert_eq!(seen.len(), 3);
    assert!(matches!(seen[0], Message::Ping { token: 1 }));
    assert!(matches!(seen[1], Message::FrameBatch { session: 2, .. }));
    assert!(matches!(seen[2], Message::Bye));
}

#[test]
fn envelope_rejects_hostile_lengths_and_types() {
    // §1: length 0 is invalid (the type byte is part of the count)…
    assert!(matches!(
        decode(&0u32.to_le_bytes()),
        Err(NetWireError::BadLength(0))
    ));
    // …as is anything beyond MAX_MESSAGE_LEN — the receiver must not
    // buffer unbounded bytes on a peer's say-so.
    assert!(matches!(
        decode(&u32::MAX.to_le_bytes()),
        Err(NetWireError::BadLength(_))
    ));
    // Unknown type bytes are fatal: framing cannot be trusted after.
    // `0x09` is unassigned (§1).
    for t in [0x7f, 0x09] {
        assert!(matches!(
            decode(&envelope(t, &[])),
            Err(NetWireError::BadType(b)) if b == t
        ));
    }
    // Trailing bytes inside a body are a spec violation, not padding.
    let mut p = 1u64.to_le_bytes().to_vec();
    p.push(0xff);
    assert!(matches!(
        decode(&envelope(0x05, &p)),
        Err(NetWireError::Malformed(_))
    ));
}
