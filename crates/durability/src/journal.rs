//! The write-ahead journal: CRC32-framed records over rotating segments.
//!
//! # Record format (normative, pinned by `journal_conformance`)
//!
//! Every record is a little-endian frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload_len  (u32 LE)
//! 4       8     seq          (u64 LE, strictly increasing from 1)
//! 12      4     crc32        (u32 LE, IEEE; over bytes 4..12 ++ payload)
//! 16      n     payload      (opaque bytes)
//! ```
//!
//! The CRC covers the sequence number *and* the payload, so a record
//! spliced from two torn writes can never validate. `payload_len` is
//! bounded by [`MAX_PAYLOAD_LEN`]; a larger value is treated as
//! corruption (it is far more likely to be a torn length field than a
//! real 16 MiB control op).
//!
//! # Segments
//!
//! Records land in segment files named `wal-<start_seq>.log` (the start
//! sequence zero-padded to 20 digits so lexicographic order is numeric
//! order). [`Journal::rotate`] seals the active segment and starts a new
//! one at the next sequence; [`Journal::compact`] deletes segments whose
//! records are all covered by a checkpoint. Replay walks the segments in
//! order and **stops at the first invalid record** — everything before
//! it is the journal's valid prefix, everything after (including any
//! later segments) is discarded and counted in
//! [`Replay::truncated_bytes`]. [`Journal::open`] repairs the files to
//! exactly that prefix, so a crashed append can never poison later
//! appends.
//!
//! # Durability
//!
//! Every append is `fdatasync`ed before [`Journal::append`] returns, so
//! no acknowledged record is lost on power failure. Only control-plane
//! ops are journaled, and they are rare. See `docs/DURABILITY.md`.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::failpoint::{Failpoint, FailpointFs};
use crate::Crc32;

/// Bytes of framing before each record's payload.
pub const RECORD_HEADER_LEN: usize = 16;

/// Upper bound on one record's payload; larger length fields are
/// treated as corruption during replay.
pub const MAX_PAYLOAD_LEN: u32 = 16 * 1024 * 1024;

/// Write-side counters, mirrored into `gesto_journal_*` metrics by the
/// server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended.
    pub appends: u64,
    /// Bytes appended (framing + payload).
    pub bytes: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Segments deleted by compaction.
    pub compacted_segments: u64,
}

/// What a replay of the on-disk journal found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The valid record prefix, in order: `(seq, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Bytes discarded past the last valid record (torn tails, corrupt
    /// records, and any segments after the corruption point).
    pub truncated_bytes: u64,
    /// Segment files inspected.
    pub segments: usize,
}

impl Replay {
    /// Sequence number of the last valid record (0 when empty).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map(|(s, _)| *s).unwrap_or(0)
    }
}

/// An append-only write-ahead journal over rotating segment files.
///
/// See the [module docs](self) for the on-disk format. All methods take
/// `&mut self`: the journal is single-writer by design (the server
/// serialises control-plane ops before journaling them).
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: FailpointFs,
    /// Path of the active segment (the failpoint tests reopen it).
    active: PathBuf,
    /// Sequence the next append will get.
    next_seq: u64,
    /// Reusable record-encode scratch.
    scratch: Vec<u8>,
    stats: JournalStats,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, replaying what is on
    /// disk and repairing any torn tail: after this call the segment
    /// files hold exactly the returned valid prefix, and appends resume
    /// at `replay.last_seq() + 1`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Journal, Replay)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let replay = scan(&dir, 0, true)?;
        let next_seq = replay.last_seq() + 1;

        // The active segment is the newest surviving one; if none
        // survived (fresh dir, or corruption wiped them), start a new
        // segment at the next sequence.
        let active = match segment_files(&dir)?.pop() {
            Some((_, path)) => path,
            None => create_segment(&dir, next_seq)?,
        };
        let mut file = OpenOptions::new().read(true).write(true).open(&active)?;
        let end = file.seek(SeekFrom::End(0))?;
        let journal = Journal {
            dir,
            file: FailpointFs::new(file, end),
            active,
            next_seq,
            scratch: Vec::with_capacity(256),
            stats: JournalStats::default(),
        };
        Ok((journal, replay))
    }

    /// Appends one record and `fdatasync`s it. Returns the record's
    /// sequence number.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(
            payload.len() as u64 <= u64::from(MAX_PAYLOAD_LEN),
            "journal payload exceeds MAX_PAYLOAD_LEN"
        );
        let seq = self.next_seq;
        self.scratch.clear();
        encode_record(seq, payload, &mut self.scratch);
        self.file.write_all(&self.scratch)?;
        self.next_seq += 1;
        self.stats.appends += 1;
        self.stats.bytes += self.scratch.len() as u64;
        self.sync()?;
        Ok(seq)
    }

    /// Forces an `fdatasync` of the active segment now.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Seals the active segment and starts a new one at the next
    /// sequence. Called after a checkpoint so [`Self::compact`] can
    /// delete the sealed history.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let path = create_segment(&self.dir, self.next_seq)?;
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        self.file = FailpointFs::new(file, 0);
        self.active = path;
        self.stats.rotations += 1;
        Ok(())
    }

    /// Deletes every sealed segment whose records are all `<= upto`
    /// (i.e. covered by a checkpoint at `upto`). The active segment is
    /// never deleted. Returns the number of segments removed.
    pub fn compact(&mut self, upto: u64) -> io::Result<usize> {
        let segments = segment_files(&self.dir)?;
        let mut removed = 0;
        // A segment's records all precede its successor's start; it is
        // fully covered iff that successor starts at or below upto + 1.
        for pair in segments.windows(2) {
            let (_, ref path) = pair[0];
            let (next_start, _) = pair[1];
            if next_start <= upto + 1 && *path != self.active {
                std::fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        self.stats.compacted_segments += removed as u64;
        Ok(removed)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        segment_files(&self.dir).map(|s| s.len()).unwrap_or(0)
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the last appended record (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Write-side counters since open.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms a [`Failpoint`] on the active segment's write stream —
    /// **test-only**: this exists so crash-recovery property tests can
    /// corrupt the journal at an exact byte offset. Production code
    /// never calls it.
    pub fn arm_failpoint(&mut self, fault: Failpoint) {
        self.file.arm(fault);
    }
}

/// Encodes one record frame into `out` (see the module docs for the
/// layout).
pub fn encode_record(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let seq_bytes = seq.to_le_bytes();
    out.extend_from_slice(&seq_bytes);
    let mut crc = Crc32::new();
    crc.update(&seq_bytes);
    crc.update(payload);
    out.extend_from_slice(&crc.finalize().to_le_bytes());
    out.extend_from_slice(payload);
}

/// Replays the journal in `dir` without repairing it, returning records
/// with `seq > min_seq` (pass 0 for everything). Corruption truncates:
/// the first invalid record ends the replay, and the remainder is
/// counted in [`Replay::truncated_bytes`].
pub fn replay_dir(dir: impl AsRef<Path>, min_seq: u64) -> io::Result<Replay> {
    scan(dir.as_ref(), min_seq, false)
}

/// Walks the segments in order, validating records. With `repair`,
/// truncates the segment holding the first invalid record to the valid
/// prefix and deletes all later segments.
fn scan(dir: &Path, min_seq: u64, repair: bool) -> io::Result<Replay> {
    let segments = segment_files(dir)?;
    let mut replay = Replay {
        records: Vec::new(),
        truncated_bytes: 0,
        segments: segments.len(),
    };
    // Compaction may have deleted the oldest segments: continuity is
    // checked from the first surviving segment's declared start.
    let mut last_seq = segments
        .first()
        .map(|(s, _)| s.saturating_sub(1))
        .unwrap_or(0);
    let mut corrupt_at: Option<usize> = None;
    for (i, (_, path)) in segments.iter().enumerate() {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let valid = scan_segment(&bytes, &mut last_seq, min_seq, &mut replay.records);
        if valid < bytes.len() as u64 {
            replay.truncated_bytes += bytes.len() as u64 - valid;
            if repair {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(valid)?;
                f.sync_data()?;
            }
            corrupt_at = Some(i);
            break;
        }
    }
    if let Some(i) = corrupt_at {
        // Segments past the corruption point are beyond the valid
        // prefix: their records would leave a gap in the sequence.
        for (_, path) in &segments[i + 1..] {
            replay.truncated_bytes += std::fs::metadata(path)?.len();
            if repair {
                std::fs::remove_file(path)?;
            }
        }
        if repair {
            sync_dir(dir)?;
        }
    }
    Ok(replay)
}

/// Validates records in one segment's bytes, appending those with
/// `seq > min_seq` to `out`. Returns the byte length of the valid
/// prefix.
fn scan_segment(
    bytes: &[u8],
    last_seq: &mut u64,
    min_seq: u64,
    out: &mut Vec<(u64, Vec<u8>)>,
) -> u64 {
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            return pos as u64; // incomplete header = torn tail
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if len > MAX_PAYLOAD_LEN {
            return pos as u64; // absurd length = corrupt length field
        }
        let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let stored_crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
        let end = RECORD_HEADER_LEN + len as usize;
        if rest.len() < end {
            return pos as u64; // incomplete payload = torn tail
        }
        let payload = &rest[RECORD_HEADER_LEN..end];
        let mut crc = Crc32::new();
        crc.update(&rest[4..12]);
        crc.update(payload);
        if crc.finalize() != stored_crc {
            return pos as u64; // corrupt record
        }
        if seq != *last_seq + 1 {
            return pos as u64; // sequence gap or replayed tail
        }
        *last_seq = seq;
        if seq > min_seq {
            out.push((seq, payload.to_vec()));
        }
        pos += end;
    }
}

/// Segment files in `dir`, sorted by start sequence ascending.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(start) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((start, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.log"))
}

fn create_segment(dir: &Path, start_seq: u64) -> io::Result<PathBuf> {
    let path = segment_path(dir, start_seq);
    File::create(&path)?.sync_data()?;
    sync_dir(dir)?;
    Ok(path)
}

/// Flushes directory metadata (created/renamed/deleted entries) to
/// stable storage. Directories cannot be fsynced on all platforms;
/// failure to open one read-only is ignored rather than failing the
/// write path.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gesto-journal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let (mut j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records, vec![]);
        assert_eq!(j.append(b"one").unwrap(), 1);
        assert_eq!(j.append(b"two").unwrap(), 2);
        assert_eq!(j.append(b"").unwrap(), 3, "empty payloads are legal");
        assert_eq!(j.stats().fsyncs, j.stats().appends, "every append synced");
        drop(j);

        let (j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(
            replay.records,
            vec![(1, b"one".to_vec()), (2, b"two".to_vec()), (3, Vec::new())]
        );
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(j.next_seq(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_repaired() {
        let dir = scratch_dir("torn");
        let (mut j, _) = Journal::open(&dir).unwrap();
        j.append(b"keep me").unwrap();
        // Crash mid-way through the second record's payload.
        let cut = (2 * RECORD_HEADER_LEN + b"keep me".len() + 3) as u64;
        j.arm_failpoint(Failpoint::TruncateAt(cut));
        j.append(b"torn record").unwrap();
        drop(j);

        let (mut j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records, vec![(1, b"keep me".to_vec())]);
        assert_eq!(replay.truncated_bytes, RECORD_HEADER_LEN as u64 + 3);
        // The repair leaves a cleanly appendable journal.
        assert_eq!(j.append(b"after repair").unwrap(), 2);
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(
            replay.records,
            vec![(1, b"keep me".to_vec()), (2, b"after repair".to_vec())]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_truncates_from_corrupt_record() {
        let dir = scratch_dir("flip");
        let (mut j, _) = Journal::open(&dir).unwrap();
        j.append(b"good").unwrap();
        let second_start = (RECORD_HEADER_LEN + 4) as u64;
        j.arm_failpoint(Failpoint::BitFlipAt(
            second_start + RECORD_HEADER_LEN as u64,
        ));
        j.append(b"bad payload").unwrap();
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records, vec![(1, b"good".to_vec())]);
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_desync_is_contained() {
        let dir = scratch_dir("short");
        let (mut j, _) = Journal::open(&dir).unwrap();
        j.append(b"good").unwrap();
        let second_start = (RECORD_HEADER_LEN + 4) as u64;
        j.arm_failpoint(Failpoint::ShortWriteAt(second_start + 5));
        j.append(b"shorted").unwrap();
        j.append(b"misaligned follower").unwrap();
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(
            replay.records,
            vec![(1, b"good".to_vec())],
            "desynced tail must not produce phantom records"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_compaction() {
        let dir = scratch_dir("rotate");
        let (mut j, _) = Journal::open(&dir).unwrap();
        j.append(b"a").unwrap(); // seq 1
        j.append(b"b").unwrap(); // seq 2
        j.rotate().unwrap(); // segment 2 starts at seq 3
        j.append(b"c").unwrap(); // seq 3
        j.rotate().unwrap(); // segment 3 starts at seq 4
        j.append(b"d").unwrap(); // seq 4
        assert_eq!(j.segment_count(), 3);

        // Checkpoint at seq 2 covers only the first segment.
        assert_eq!(j.compact(2).unwrap(), 1);
        assert_eq!(j.segment_count(), 2);
        drop(j);
        // Seqs 1–2 are gone with their segment; replay resumes mid-log
        // (a checkpoint at seq 2 provides the missing prefix).
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.records, vec![(3, b"c".to_vec()), (4, b"d".to_vec())]);
        assert_eq!(
            replay_dir(&dir, 3).unwrap().records,
            vec![(4, b"d".to_vec())],
            "min_seq filters already-checkpointed records"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
