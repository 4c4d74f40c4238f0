//! # gesto-durability — crash-safe persistence primitives
//!
//! The control plane of a gesture server (teach / deploy / undeploy /
//! set-config) is state you cannot afford to lose on a crash. This crate
//! provides the storage layer that makes it durable, with no
//! dependencies beyond `std`:
//!
//! * [`journal`] — a CRC32-framed, length-prefixed **write-ahead
//!   journal** over rotating segment files, `fdatasync`ed on every
//!   append, with torn-tail / corrupt-record detection that truncates to
//!   the last valid record on replay.
//! * [`checkpoint`] — **atomic snapshots** written via
//!   temp-file-then-rename, CRC-validated on load, so a crash mid-write
//!   can never destroy the previous checkpoint.
//! * [`failpoint`] — a fault-injecting file wrapper used by the
//!   crash-recovery property tests to cut, flip or shorten writes at an
//!   exact byte offset.
//!
//! Payloads are opaque byte slices: callers pick their own encoding
//! (the server journals JSON control ops). The on-disk formats are
//! normatively documented in `docs/DURABILITY.md` and pinned by the
//! `journal_conformance` golden tests — they cannot drift silently.
//!
//! ```
//! use gesto_durability::Journal;
//!
//! let dir = std::env::temp_dir().join(format!("gesto-wal-doc-{}", std::process::id()));
//! let (mut journal, replay) = Journal::open(&dir).unwrap();
//! assert!(replay.records.is_empty());
//! journal.append(b"deploy swipe_right").unwrap();
//!
//! // A later process replays exactly what was appended.
//! drop(journal);
//! let (_journal, replay) = Journal::open(&dir).unwrap();
//! assert_eq!(replay.records, vec![(1, b"deploy swipe_right".to_vec())]);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod failpoint;
pub mod journal;

pub use checkpoint::{
    load_newest_checkpoint, prune_checkpoints, save_checkpoint, LoadedCheckpoint,
};
pub use failpoint::{Failpoint, FailpointFs};
pub use journal::{replay_dir, Journal, JournalStats, Replay};

/// CRC-32 (IEEE 802.3, the polynomial used by zlib/gzip/PNG), computed
/// bytewise from a compile-time table. One-shot form of [`Crc32`].
///
/// ```
/// assert_eq!(gesto_durability::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Incremental CRC-32 (IEEE) state, for checksumming scattered buffers
/// without concatenating them.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        for &b in data {
            s = CRC_TABLE[((s ^ u32::from(b)) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// The checksum over everything fed so far.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// The IEEE CRC-32 table (reflected polynomial 0xEDB88320), built at
/// compile time so the hot path is one lookup + xor per byte.
static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut c = Crc32::new();
        c.update(b"123");
        c.update(b"456789");
        assert_eq!(c.finalize(), crc32(b"123456789"));
    }
}
