//! Page storage substrate for the `bur` workspace.
//!
//! The VLDB 2003 bottom-up R-tree paper measures *average disk I/O per
//! operation* behind a buffer whose size is a percentage of the database
//! size (their reference \[8\] is Leutenegger & Lopez, "The Effect of
//! Buffering on the Performance of R-Trees"). This crate reproduces that
//! substrate:
//!
//! * [`DiskBackend`] — a page-addressed disk. Two implementations are
//!   provided: [`MemDisk`] (a simulated disk held in memory — the default
//!   for experiments, where only the *count* of physical accesses matters)
//!   and [`FileDisk`] (a real file, for persistence tests and durability).
//! * [`BufferPool`] — an LRU, write-back buffer pool. Fetching a cached
//!   page is free; a miss costs one physical read; evicting or flushing a
//!   dirty page costs one physical write. Capacity 0 models the paper's
//!   "0 % buffer" configuration (pages are kept only while pinned).
//!   Because page ids are dense, the pool keeps one 32-byte slot per page
//!   of the file in a vector indexed by page id — the resident frame, the
//!   LRU links and the WAL gate's per-page state — so a hit hashes
//!   nothing: one lock, one slot, one frame header, and the two LRU
//!   neighbours when the pin count crosses 0 ↔ 1. Frames are still
//!   allocated per resident page, not per slot.
//! * [`IoStats`] / [`IoSnapshot`] — atomic counters and snapshot deltas,
//!   the measurement device behind every "Avg Disk I/O" figure.
//! * [`write_chain`] / [`read_chain`] — a byte payload stored across a
//!   chain of pages, the one format of the index's metadata chain and of
//!   its persisted hash directory.
//!
//! # Pinning and latching
//!
//! [`BufferPool::fetch`] returns a [`PageRef`] that pins the frame (it
//! cannot be evicted) and exposes the page bytes behind a `parking_lot`
//! read/write latch. Dropping the guard unpins the frame and, if the pool
//! is over capacity, triggers LRU eviction. Callers that hold several
//! guards at once (e.g. a root-to-leaf path) must acquire latches in a
//! consistent order; the R-tree crate always latches parent before child.
//!
//! # Write-ahead-log mode
//!
//! [`BufferPool::set_wal_mode`] switches the pool into a WAL-aware mode
//! for `bur-wal`-backed durability: every write-latched page is tracked
//! as *touched*, and a dirty frame may not be written back to disk until
//! its last logged image is durable (`page_lsn <= durable_lsn`) — the
//! classic WAL rule, plus no-steal for pages touched since the last
//! commit. Frames that cannot be written back simply stay resident, so
//! the pool may transiently exceed its capacity between commits. The
//! touched bits and page LSNs are fields of the page's slot, under the
//! pool's one state lock (there is no separate gate lock to order).

#![warn(missing_docs)]

mod chain;
mod disk;
mod error;
mod faults;
mod lru;
mod pool;
mod stats;

pub use chain::{read_chain, write_chain};
pub use disk::{DiskBackend, FileDisk, MemDisk};
pub use error::{StorageError, StorageResult};
pub use faults::{FaultKind, FaultyDisk, PowerSupply};
pub use pool::{BufferPool, PageReadLatch, PageRef, PageWriteLatch, PoolConfig, PreImage};
pub use stats::{IoSnapshot, IoStats};

/// Identifier of a page on a disk. Pages are allocated densely from 0.
pub type PageId = u32;

/// A log sequence number: the position of a record in a write-ahead log.
/// Strictly increasing over the life of an index; 0 means "none yet".
pub type Lsn = u64;

/// Sentinel for "no page" (e.g. a leaf's missing parent pointer).
pub const INVALID_PAGE: PageId = PageId::MAX;

/// The paper's page size: "The page size is set to 1024 bytes for all
/// techniques."
pub const DEFAULT_PAGE_SIZE: usize = 1024;
