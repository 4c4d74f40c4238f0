//! Fault injection for crash-recovery tests.
//!
//! A crash can interrupt a journal append at *any* byte: the recovery
//! invariant (replay yields a valid prefix of the op log) is only
//! credible if it is tested against exactly that. [`FailpointFs`] wraps
//! the journal's segment file and corrupts the write stream at a chosen
//! absolute byte offset — cutting it dead ([`Failpoint::TruncateAt`]),
//! flipping a bit ([`Failpoint::BitFlipAt`]) or shortening one write so
//! later appends land misaligned ([`Failpoint::ShortWriteAt`]).
//!
//! This is test-only machinery: production journals run with no
//! failpoint armed, in which case every call forwards straight to the
//! underlying [`File`].

use std::fs::File;
use std::io::{self, Write};

/// One injected fault, positioned by absolute file offset (bytes since
/// the start of the segment file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// The process "crashes" at this offset: the byte at the offset and
    /// everything after it is never written, though the writer keeps
    /// reporting success (a crashed process never sees the failure
    /// either).
    TruncateAt(u64),
    /// The byte written at this offset is persisted with its lowest bit
    /// flipped — silent media corruption.
    BitFlipAt(u64),
    /// The single `write` call spanning this offset is persisted only up
    /// to it; **subsequent writes continue at the real (shorter) end**,
    /// so later records land misaligned against the record framing.
    ShortWriteAt(u64),
}

/// A [`File`] writer that applies an optional [`Failpoint`] to the
/// write stream. With no failpoint armed it is a transparent
/// passthrough (one branch per write).
#[derive(Debug)]
pub struct FailpointFs {
    file: File,
    /// Logical offset: bytes the caller has asked to write (the file
    /// offset a fault-free run would be at).
    logical: u64,
    /// Bytes actually persisted (diverges from `logical` after a
    /// truncate/short-write fault).
    persisted: u64,
    fault: Option<Failpoint>,
}

impl FailpointFs {
    /// Wraps `file`, assuming its cursor sits at `offset` bytes (the
    /// journal opens segments positioned at the end of the valid
    /// prefix).
    pub fn new(file: File, offset: u64) -> Self {
        Self {
            file,
            logical: offset,
            persisted: offset,
            fault: None,
        }
    }

    /// Arms a failpoint for subsequent writes (replacing any previous
    /// one). Offsets are absolute file offsets.
    pub fn arm(&mut self, fault: Failpoint) {
        self.fault = Some(fault);
    }

    /// Disarms the failpoint.
    pub fn disarm(&mut self) {
        self.fault = None;
    }

    /// Logical bytes written so far (what a fault-free run would have
    /// persisted).
    pub fn logical_offset(&self) -> u64 {
        self.logical
    }

    /// Bytes actually persisted to the file.
    pub fn persisted_offset(&self) -> u64 {
        self.persisted
    }

    /// The wrapped file.
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Flushes file contents to stable storage (`fdatasync`).
    pub fn sync_data(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn write_through(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)?;
        self.persisted += buf.len() as u64;
        Ok(())
    }
}

impl Write for FailpointFs {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = self.logical;
        let end = start + buf.len() as u64;
        match self.fault {
            None => self.write_through(buf)?,
            Some(Failpoint::TruncateAt(at)) => {
                // Persist only the prefix below `at`; report success —
                // the "crash" means nobody observes the loss.
                if start < at {
                    let keep = (at - start).min(buf.len() as u64) as usize;
                    self.write_through(&buf[..keep])?;
                }
            }
            Some(Failpoint::BitFlipAt(at)) => {
                if at >= start && at < end {
                    let mut corrupted = buf.to_vec();
                    corrupted[(at - start) as usize] ^= 0x01;
                    self.write_through(&corrupted)?;
                } else {
                    self.write_through(buf)?;
                }
            }
            Some(Failpoint::ShortWriteAt(at)) => {
                if at >= start && at < end {
                    // This one call is cut short; later writes continue
                    // at the real end of file, misaligning the framing.
                    let keep = (at - start) as usize;
                    self.write_through(&buf[..keep])?;
                    self.fault = None;
                    // Later appends must land where the file really
                    // ends, not where the logical stream thinks it is.
                    self.logical = self.persisted;
                    return Ok(buf.len());
                }
                self.write_through(buf)?;
            }
        }
        self.logical = end;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn scratch_file(name: &str) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!("gesto-fp-{}-{name}", std::process::id()));
        let file = File::create(&path).unwrap();
        (path, file)
    }

    fn contents(path: &std::path::Path) -> Vec<u8> {
        let mut buf = Vec::new();
        File::open(path).unwrap().read_to_end(&mut buf).unwrap();
        buf
    }

    #[test]
    fn truncate_drops_everything_from_offset() {
        let (path, file) = scratch_file("trunc");
        let mut fs = FailpointFs::new(file, 0);
        fs.arm(Failpoint::TruncateAt(5));
        fs.write_all(b"abcd").unwrap();
        fs.write_all(b"efgh").unwrap(); // only 'e' lands
        fs.write_all(b"ijkl").unwrap(); // fully dropped
        assert_eq!(contents(&path), b"abcde");
        assert_eq!(fs.logical_offset(), 12, "writer believes all was written");
        assert_eq!(fs.persisted_offset(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_corrupts_exactly_one_byte() {
        let (path, file) = scratch_file("flip");
        let mut fs = FailpointFs::new(file, 0);
        fs.arm(Failpoint::BitFlipAt(2));
        fs.write_all(b"abcd").unwrap();
        assert_eq!(contents(&path), b"ab\x62d"); // 'c' ^ 0x01 = 'b'
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_desyncs_later_appends() {
        let (path, file) = scratch_file("short");
        let mut fs = FailpointFs::new(file, 0);
        fs.arm(Failpoint::ShortWriteAt(2));
        fs.write_all(b"abcd").unwrap(); // only "ab" lands
        fs.write_all(b"WXYZ").unwrap(); // appends at the real end
        assert_eq!(contents(&path), b"abWXYZ");
        assert_eq!(fs.persisted_offset(), 6);
        std::fs::remove_file(&path).ok();
    }
}
