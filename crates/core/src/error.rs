//! Error type for the R-tree core.

use bur_storage::{PageId, StorageError};
use std::fmt;

/// Result alias for core operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised by the R-tree and its update strategies.
#[derive(Debug)]
pub enum CoreError {
    /// Propagated storage failure.
    Storage(StorageError),
    /// A page did not contain a well-formed node (corruption or a page id
    /// pointing at a non-node page).
    CorruptNode {
        /// The offending page.
        pid: PageId,
        /// What was wrong.
        reason: &'static str,
    },
    /// The object id is already present (inserts require fresh ids).
    DuplicateObject(u64),
    /// The object id was not found where the caller said it would be.
    ObjectNotFound(u64),
    /// An invariant check failed; [`crate::RTreeIndex::validate`] reports
    /// the first violation it finds.
    InvariantViolation(String),
    /// The options are inconsistent (e.g. a page too small for one entry).
    BadConfig(String),
    /// An operation inside a [`crate::Batch`] failed. Operations before
    /// `op_index` were applied (and, on a durable index, flushed as the
    /// batch's group commit record); the failing operation and everything
    /// after it were not.
    Batch {
        /// Zero-based position of the failing operation in the batch.
        op_index: usize,
        /// Why that operation failed.
        source: Box<CoreError>,
    },
    /// A write was attempted through a read-only handle (a replication
    /// follower's view). Promote the replica to obtain a writable handle.
    ReadOnly,
    /// The index's metadata says its write-ahead log lives outside the
    /// data file (a `.wal` sidecar, or the disk given to
    /// [`crate::IndexBuilder::log_disk`]) and that log was not supplied or
    /// does not exist. Opening without it would silently drop every
    /// update since the last checkpoint, so the open fails instead.
    LogMissing(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::CorruptNode { pid, reason } => {
                write!(f, "corrupt node on page {pid}: {reason}")
            }
            CoreError::DuplicateObject(oid) => write!(f, "object {oid} already indexed"),
            CoreError::ObjectNotFound(oid) => write!(f, "object {oid} not found"),
            CoreError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            CoreError::Batch { op_index, source } => {
                write!(f, "batch operation #{op_index} failed: {source}")
            }
            CoreError::ReadOnly => {
                write!(
                    f,
                    "index handle is read-only (a replica view; promote it to write)"
                )
            }
            CoreError::LogMissing(what) => {
                write!(f, "write-ahead log missing: {what}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Batch { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(CoreError::DuplicateObject(5).to_string().contains('5'));
        assert!(CoreError::ObjectNotFound(9).to_string().contains('9'));
        assert!(CoreError::CorruptNode {
            pid: 3,
            reason: "bad magic"
        }
        .to_string()
        .contains("bad magic"));
        assert!(CoreError::InvariantViolation("x".into())
            .to_string()
            .contains('x'));
        assert!(CoreError::BadConfig("y".into()).to_string().contains('y'));
        assert!(CoreError::LogMissing("z.wal".into())
            .to_string()
            .contains("z.wal"));
        let e: CoreError = StorageError::DiskFull.into();
        assert!(e.to_string().contains("full"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
