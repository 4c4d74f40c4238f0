//! On-disk format conformance: the journal record and checkpoint
//! framing pinned against **hand-written golden bytes** (CRCs computed
//! with an independent CRC-32/ISO-HDLC implementation), in the style of
//! gesto-serve's `protocol_conformance`. If any of these tests fail,
//! the on-disk format changed: existing journals would stop replaying.
//! Bump the formats deliberately (new magic / segment naming), never
//! silently.

use gesto_durability::checkpoint::{save_checkpoint, CHECKPOINT_HEADER_LEN, CHECKPOINT_MAGIC};
use gesto_durability::journal::{encode_record, RECORD_HEADER_LEN};
use gesto_durability::{crc32, load_newest_checkpoint, replay_dir, Journal};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gesto-conform-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Record 1: seq=1, payload `teach swipe_right` (17 bytes).
/// CRC-32(seq_le ++ payload) = 0x2623968B, stored LE.
const RECORD_1: &[u8] = &[
    0x11, 0x00, 0x00, 0x00, // payload_len = 17
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq = 1
    0x8B, 0x96, 0x23, 0x26, // crc32 = 0x2623968B
    b't', b'e', b'a', b'c', b'h', b' ', b's', b'w', b'i', b'p', b'e', b'_', b'r', b'i', b'g', b'h',
    b't',
];

/// Record 2: seq=2, payload `deploy v2` (9 bytes). CRC = 0x93A3C69D.
const RECORD_2: &[u8] = &[
    0x09, 0x00, 0x00, 0x00, // payload_len = 9
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq = 2
    0x9D, 0xC6, 0xA3, 0x93, // crc32 = 0x93A3C69D
    b'd', b'e', b'p', b'l', b'o', b'y', b' ', b'v', b'2',
];

/// Checkpoint: seq=2, payload `{"gestures":1}` (14 bytes).
/// CRC-32(seq_le ++ len_le ++ payload) = 0xAAA4D5BD.
const CHECKPOINT: &[u8] = &[
    b'G', b'C', b'K', b'1', // magic
    0xBD, 0xD5, 0xA4, 0xAA, // crc32 = 0xAAA4D5BD
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq = 2
    0x0E, 0x00, 0x00, 0x00, // payload_len = 14
    b'{', b'"', b'g', b'e', b's', b't', b'u', b'r', b'e', b's', b'"', b':', b'1', b'}',
];

#[test]
fn crc32_is_iso_hdlc() {
    // The check value every CRC-32/ISO-HDLC implementation must produce.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn record_encoding_matches_golden_bytes() {
    let mut out = Vec::new();
    encode_record(1, b"teach swipe_right", &mut out);
    assert_eq!(out, RECORD_1);
    out.clear();
    encode_record(2, b"deploy v2", &mut out);
    assert_eq!(out, RECORD_2);
    assert_eq!(RECORD_HEADER_LEN, 16);
}

#[test]
fn journal_writes_golden_bytes_to_disk() {
    let dir = scratch_dir("journal-golden");
    let (mut j, _) = Journal::open(&dir).unwrap();
    j.append(b"teach swipe_right").unwrap();
    j.append(b"deploy v2").unwrap();
    drop(j);

    let segment = dir.join(format!("wal-{:020}.log", 1));
    let bytes = std::fs::read(&segment).expect("segment file exists under its documented name");
    let expected: Vec<u8> = [RECORD_1, RECORD_2].concat();
    assert_eq!(bytes, expected, "on-disk journal bytes match the spec");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_bytes_replay_without_the_writer() {
    // A journal written by any conforming implementation replays: write
    // the golden bytes directly, no Journal involved.
    let dir = scratch_dir("journal-replay");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(format!("wal-{:020}.log", 1)),
        [RECORD_1, RECORD_2].concat(),
    )
    .unwrap();
    let replay = replay_dir(&dir, 0).unwrap();
    assert_eq!(
        replay.records,
        vec![
            (1, b"teach swipe_right".to_vec()),
            (2, b"deploy v2".to_vec()),
        ]
    );
    assert_eq!(replay.truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_writes_golden_bytes_to_disk() {
    let dir = scratch_dir("ckpt-golden");
    let path = save_checkpoint(&dir, 2, b"{\"gestures\":1}").unwrap();
    assert_eq!(
        path.file_name().unwrap().to_string_lossy(),
        format!("ckpt-{:020}.ckpt", 2),
        "checkpoint file naming is part of the format"
    );
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes, CHECKPOINT, "on-disk checkpoint bytes match the spec");
    assert_eq!(CHECKPOINT_HEADER_LEN, 20);
    assert_eq!(CHECKPOINT_MAGIC, b"GCK1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_checkpoint_loads_without_the_writer() {
    let dir = scratch_dir("ckpt-load");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("ckpt-{:020}.ckpt", 2)), CHECKPOINT).unwrap();
    let loaded = load_newest_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(loaded.seq, 2);
    assert_eq!(loaded.payload, b"{\"gestures\":1}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_byte_corruption_of_a_record_is_rejected() {
    // Exhaustive: flip one bit in every byte of a two-record journal;
    // replay must never return a record whose bytes were touched, and
    // must never panic.
    let golden: Vec<u8> = [RECORD_1, RECORD_2].concat();
    let dir = scratch_dir("bitflip-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let seg = dir.join(format!("wal-{:020}.log", 1));
    for i in 0..golden.len() {
        let mut corrupted = golden.clone();
        corrupted[i] ^= 0x01;
        std::fs::write(&seg, &corrupted).unwrap();
        let replay = replay_dir(&dir, 0).unwrap();
        let expect_valid = if i < RECORD_1.len() { 0 } else { 1 };
        assert_eq!(
            replay.records.len(),
            expect_valid,
            "byte {i}: corruption must truncate from the corrupt record"
        );
        assert!(replay.truncated_bytes > 0, "byte {i}: truncation counted");
    }
    std::fs::remove_dir_all(&dir).ok();
}
