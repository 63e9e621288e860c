//! Error type shared by the storage layer.

use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column or field name was not found in a schema.
    ColumnNotFound(String),
    /// A table name was not found in the catalog.
    TableNotFound(String),
    /// A table with this name already exists and `replace` was not requested.
    TableExists(String),
    /// A value of the wrong type was pushed into a column or compared.
    TypeMismatch {
        /// Type the target required.
        expected: String,
        /// Type actually supplied.
        found: String,
    },
    /// Columns of a table disagree on length, or a row has the wrong arity.
    LengthMismatch {
        /// Length the target required.
        expected: usize,
        /// Length actually supplied.
        found: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// Offending row index.
        index: usize,
        /// Table length.
        len: usize,
    },
    /// Schema-level invalid definition (duplicate field names, empty schema...).
    InvalidSchema(String),
    /// An index was declared over columns that do not exist / wrong arity probe.
    InvalidIndex(String),
    /// Row `row` of an index's table repeats the key of an earlier row: a
    /// [`crate::HashIndex`] maps each key to one row.
    DuplicateKey {
        /// The second row carrying the key.
        row: usize,
    },
    /// Row `row` of an inner lookup's probe table has no row in the index.
    MissingKey {
        /// The probe row.
        row: usize,
    },
    /// WAL failure (e.g. record too large for configured capacity).
    Wal(String),
    /// Log-device I/O failure (stringified to keep the error `Clone + Eq`).
    /// Permanent: retrying will not help (device offline, corruption).
    Io(String),
    /// Log-device I/O failure expected to clear on retry (interrupted
    /// syscall, transient contention, a device hiccup). The retry layer
    /// ([`crate::retry::RetryPolicy`]) absorbs these; everything else
    /// fails fast.
    TransientIo(String),
    /// Checkpoint serialization, storage, or decode failure. Permanent:
    /// recovery falls back to the previous checkpoint + full WAL replay.
    Checkpoint(String),
    /// A checkpoint attempt kept losing its LSN fence to concurrent
    /// writers and gave up; the WAL keeps the state, try again when the
    /// write rate drops.
    CheckpointContended,
    /// The catalog was sealed (fenced off) when a newer primary was
    /// promoted at this term; its writes are refused to prevent
    /// split-brain. Permanent for this catalog instance.
    Sealed {
        /// The term of the promotion that deposed this catalog.
        term: u64,
    },
    /// A replication protocol failure: a stale primary's stream was
    /// refused (term regression), a bootstrap image did not decode, or
    /// the stream could not make progress. Permanent: the subscriber
    /// must re-bootstrap from a live primary.
    Replication(String),
    /// Bytes read through the crate's codec ([`crate::partial`]) failed to
    /// decode — a serialized partial-aggregate state, a WAL record payload
    /// or a checkpoint image: bad magic, unknown version or tag, truncated
    /// payload, or CRC mismatch. Permanent: a shard must recompute and
    /// re-ship its partial; a log or image scan stops at the frame.
    PartialCodec(String),
}

impl StorageError {
    /// Whether retrying the failed operation may succeed. Only
    /// [`StorageError::TransientIo`] qualifies: every other variant is
    /// either a logic error or a permanent device/corruption failure, and
    /// retrying would just delay the inevitable.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::TransientIo(_))
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        use std::io::ErrorKind;
        match e.kind() {
            // The kinds the OS documents as retryable.
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                StorageError::TransientIo(e.to_string())
            }
            _ => StorageError::Io(e.to_string()),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            StorageError::TableNotFound(name) => write!(f, "table not found: {name}"),
            StorageError::TableExists(name) => write!(f, "table already exists: {name}"),
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::LengthMismatch { expected, found } => {
                write!(f, "length mismatch: expected {expected}, found {found}")
            }
            StorageError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for table of {len} rows")
            }
            StorageError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            StorageError::InvalidIndex(msg) => write!(f, "invalid index: {msg}"),
            StorageError::DuplicateKey { row } => {
                write!(f, "row {row} repeats an indexed key")
            }
            StorageError::MissingKey { row } => write!(f, "probe row {row} has no indexed row"),
            StorageError::Wal(msg) => write!(f, "wal error: {msg}"),
            StorageError::Io(msg) => write!(f, "io error: {msg}"),
            StorageError::TransientIo(msg) => write!(f, "transient io error: {msg}"),
            StorageError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            StorageError::CheckpointContended => {
                write!(f, "checkpoint lost its LSN fence to concurrent writers")
            }
            StorageError::Sealed { term } => {
                write!(f, "catalog sealed: deposed by a primary at term {term}")
            }
            StorageError::Replication(msg) => write!(f, "replication error: {msg}"),
            StorageError::PartialCodec(msg) => write!(f, "codec error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_human_readable() {
        let e = StorageError::ColumnNotFound("state".into());
        assert_eq!(e.to_string(), "column not found: state");
        let e = StorageError::TypeMismatch {
            expected: "Int".into(),
            found: "Str".into(),
        };
        assert_eq!(e.to_string(), "type mismatch: expected Int, found Str");
        let e = StorageError::RowOutOfBounds { index: 9, len: 3 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&StorageError::TableNotFound("t".into()));
    }

    #[test]
    fn only_transient_io_is_transient() {
        assert!(StorageError::TransientIo("hiccup".into()).is_transient());
        for e in [
            StorageError::Io("dead".into()),
            StorageError::Wal("bad".into()),
            StorageError::TableNotFound("t".into()),
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn io_error_kinds_classify() {
        use std::io::{Error, ErrorKind};
        let e: StorageError = Error::new(ErrorKind::Interrupted, "sig").into();
        assert!(e.is_transient(), "{e}");
        let e: StorageError = Error::new(ErrorKind::TimedOut, "slow").into();
        assert!(e.is_transient(), "{e}");
        let e: StorageError = Error::new(ErrorKind::NotFound, "gone").into();
        assert!(!e.is_transient(), "{e}");
    }
}
