//! Error type for the storage substrate.

use crate::PageId;
use std::fmt;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by disks and the buffer pool.
#[derive(Debug)]
pub enum StorageError {
    /// A page id beyond the end of the disk was accessed.
    PageOutOfBounds {
        /// The offending page id.
        pid: PageId,
        /// Number of pages currently allocated.
        len: u32,
    },
    /// The caller passed a buffer whose length differs from the page size.
    BadBufferLen {
        /// Expected page size in bytes.
        expected: usize,
        /// Length of the buffer provided.
        got: usize,
    },
    /// The disk is full (page-id space exhausted).
    DiskFull,
    /// An underlying OS I/O error (file-backed disks only).
    Io(std::io::Error),
    /// Bytes read back from the disk do not decode as the structure they
    /// should hold (a damaged page chain or directory): names what is
    /// wrong.
    Corrupt(&'static str),
    /// A write-ahead log refuses every append, sync and checkpoint after a
    /// sync on it, or on the data disk of its checkpoint, failed: the
    /// writes that sync covered may never reach the platter however often
    /// it is retried. Reads keep working; reopening the index recovers
    /// it from the log, which no checkpoint rewound since.
    LogFailed,
    /// A fault injected by [`crate::FaultyDisk`] (tests and failure
    /// drills only; real disks never raise this).
    InjectedFault {
        /// Operation class that failed ("read", "write", ...).
        op: &'static str,
        /// Page the operation addressed, when page-directed.
        pid: Option<PageId>,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfBounds { pid, len } => {
                write!(f, "page {pid} out of bounds (disk has {len} pages)")
            }
            StorageError::BadBufferLen { expected, got } => {
                write!(f, "buffer length {got} does not match page size {expected}")
            }
            StorageError::DiskFull => write!(f, "disk full: page id space exhausted"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupt(what) => write!(f, "corrupt stored data: {what}"),
            StorageError::LogFailed => write!(
                f,
                "write-ahead log closed by a failed sync: reopen the index to recover it"
            ),
            StorageError::InjectedFault { op, pid: Some(p) } => {
                write!(f, "injected fault: {op} of page {p}")
            }
            StorageError::InjectedFault { op, pid: None } => {
                write!(f, "injected fault: {op}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = StorageError::PageOutOfBounds { pid: 7, len: 3 };
        assert!(e.to_string().contains("page 7"));
        let e = StorageError::BadBufferLen {
            expected: 1024,
            got: 512,
        };
        assert!(e.to_string().contains("512"));
        assert!(StorageError::DiskFull.to_string().contains("full"));
        assert!(StorageError::LogFailed.to_string().contains("reopen"));
        let e = StorageError::Corrupt("hash directory truncated");
        assert!(e.to_string().contains("hash directory truncated"));
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
