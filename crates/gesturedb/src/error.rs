//! Gesture database errors.

use std::fmt;

/// Errors of the gesture store and its import/export formats.
#[derive(Debug)]
pub enum DbError {
    /// A definition failed validation.
    InvalidDefinition(String),
    /// Snapshot format version mismatch.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// Snapshot integrity check failed (stored CRC does not match the
    /// payload).
    Corrupt {
        /// CRC stored in the snapshot.
        stored: u32,
        /// CRC recomputed over the payload.
        computed: u32,
    },
    /// CSV import error with line number.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::InvalidDefinition(m) => write!(f, "invalid gesture definition: {m}"),
            DbError::Version { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (supported: {supported})"
                )
            }
            DbError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "snapshot corrupt: stored crc {stored:#010x}, computed {computed:#010x}"
                )
            }
            DbError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(DbError::InvalidDefinition("nope".into())
            .to_string()
            .contains("nope"));
        assert!(DbError::Version {
            found: 2,
            supported: 1
        }
        .to_string()
        .contains("2"));
        assert!(DbError::Csv {
            line: 7,
            message: "bad".into()
        }
        .to_string()
        .contains("line 7"));
    }
}
